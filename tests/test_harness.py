import json
import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from helpers import default_mechanisms, naive_profile

from fluiddem import (
    AffineInY,
    ConfidenceBased,
    ConstantQ,
    Constant1,
    GeneralContinuous,
    LinearQ,
    PiecewiseLinearDensity,
    TabulatedPhi,
    Uniform,
    Upward,
    compute_weights,
    normalize_phi,
    substream,
)
from fluiddem import harness
from fluiddem.cli import main as cli_main
from fluiddem.delegation_graph import NO_EDGE, sample_instance
from fluiddem.harness import (
    GAIN_HEADER,
    ExactGainMode,
    ExperimentConfig,
    MonteCarloGainMode,
    config_from_dict,
    run_condition_experiment,
    run_gain_sweep,
    run_scaling_study,
    run_simulate_experiment,
    run_six_step_sampler,
    run_sixstep_experiment,
    write_csv,
)
from fluiddem.mechanisms import gc_lift_constant, phi_y_moment
from fluiddem.tally import MAX_TOTAL_WEIGHT

UNIT = Uniform(0.0, 1.0)
BENCH_GRID = TabulatedPhi(((1.0, 2.0, 3.0), (1.5, 2.0, 3.0), (2.0, 2.5, 4.0)))
CROSSING_GRID = TabulatedPhi(((1.0, 2.0, 3.0), (3.0, 3.5, 4.0), (0.5, 1.0, 5.0), (2.0, 2.0, 2.5)))


def make_config(**overrides):
    base = dict(
        mechanism=ConfidenceBased(LinearQ(0.8, 0.8)),
        distribution=UNIT,
        sizes=(200, 400),
        reps_per_size=20,
        seed=77,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------------------
# lift constants


def test_lift_constant_confidence_based():
    mu_star, alpha = ConfidenceBased(LinearQ(1.0, 1.0)).lift(UNIT)
    assert mu_star == pytest.approx(2.0 / 3.0, abs=1e-9)
    assert alpha == pytest.approx(1.0 / 36.0, abs=1e-9)


def test_lift_constant_flat_phi_flags_degenerate():
    with pytest.warns(RuntimeWarning):
        c, alpha = GeneralContinuous(0.3, Constant1()).lift(UNIT)
    assert c == 0.0
    assert alpha == 0.0


def test_lift_constant_affine_phi():
    c, alpha = GeneralContinuous(0.3, AffineInY(1.0, 2.0)).lift(UNIT)
    assert c == pytest.approx(1.0 / 12.0, abs=1e-9)
    assert alpha == pytest.approx(c * 0.3 / 4.0, abs=1e-9)


@pytest.mark.parametrize(
    "phi, dist",
    [
        (BENCH_GRID, UNIT),
        (CROSSING_GRID, UNIT),
        (CROSSING_GRID, PiecewiseLinearDensity(((0.0, 0.5), (0.4, 2.0), (1.0, 0.5)))),
    ],
)
def test_tabulated_lift_constant_is_the_grid_row_minimum(phi, dist):
    phi_n = normalize_phi(phi, dist)
    c = gc_lift_constant(phi_n, dist)
    xs = np.union1d(np.linspace(0.0, 1.0, 101), phi._xs)
    oracle = np.array([phi_y_moment(phi_n, dist, x) for x in xs.tolist()]) - dist.mean()
    assert c <= oracle.min() + 1e-12
    assert abs(c - oracle[np.isin(xs, phi._xs)].min()) <= 1e-12


def test_benchmark_grid_lift_constant_is_exact():
    # the minimizing row x = 0.5, (1.5, 2, 3), has E[phi*y] / E[phi] = 19/34,
    # so c = 19/34 - 1/2; 200 evenly spaced x miss that row (0.0588351)
    c = gc_lift_constant(normalize_phi(BENCH_GRID, UNIT), UNIT)
    assert c == pytest.approx(1 / 17, abs=1e-12)


def test_lift_constant_upward_closed_form():
    d_eta = Uniform(0.0, 0.98)
    gap, alpha = Upward(0.5).lift(d_eta)
    assert gap == pytest.approx(0.49 - 0.245)
    assert alpha == pytest.approx(0.5 * 0.25 * 0.5 * gap / 8.0)


def test_lift_constant_rejects_flat_q():
    with pytest.raises(ValueError):
        ConfidenceBased(ConstantQ(0.4)).lift(UNIT)


# ---------------------------------------------------------------------------
# config validation


def test_config_validation():
    with pytest.raises(ValueError, match="sizes"):
        make_config(sizes=())
    with pytest.raises(ValueError, match="sizes"):
        make_config(sizes=(100, 100))
    with pytest.raises(ValueError, match="reps_per_size"):
        make_config(reps_per_size=0)
    with pytest.raises(ValueError, match="delta_exponent"):
        make_config(mechanism=Upward(0.5), delta_exponent=0.5)
    cfg = make_config(mechanism=Upward(0.5), delta_exponent=0.95)
    assert cfg.max_weight_bound(10_000) == pytest.approx(10_000**0.95)
    assert Upward(0.5).delta_floor == 0.9375
    default = make_config(mechanism=Upward(0.5)).max_weight_bound(10_000)
    assert default == pytest.approx(10_000 ** ((0.9375 + 1.0) / 2.0))


def test_config_from_dict_names_bad_fields():
    good = {
        "mechanism": {"kind": "upward", "p": 0.5},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "sizes": [100],
        "reps_per_size": 5,
        "seed": 1,
    }
    cfg = config_from_dict(good)
    assert cfg.mechanism == Upward(0.5)
    assert cfg.gain_mode == ExactGainMode()
    # 'auto' is the exact mode; 'cap', 'target_halfwidth' and 'delta' parse and are ignored
    for old in ({"kind": "auto", "cap": 10, "target_halfwidth": 0.1, "delta": 0.1},
                {"kind": "exact", "cap": 10}):
        assert config_from_dict({**good, "gain_mode": old}).gain_mode == ExactGainMode()

    with pytest.raises(ValueError, match="mechanism"):
        config_from_dict({**good, "mechanism": {"kind": "nope"}})
    with pytest.raises(ValueError, match="seed"):
        config_from_dict({k: v for k, v in good.items() if k != "seed"})
    with pytest.raises(ValueError, match="gain_mode"):
        config_from_dict({**good, "gain_mode": {"kind": "other"}})
    mc = config_from_dict(
        {**good, "gain_mode": {"kind": "monte_carlo", "reps": 100, "delta": 0.05}}
    )
    assert mc.gain_mode == MonteCarloGainMode(100, 0.05)


# ---------------------------------------------------------------------------
# condition experiment


def test_conditions_without_delegation():
    cfg = make_config(
        mechanism=ConfidenceBased(ConstantQ(0.0)),
        sizes=(150, 300),
        reps_per_size=25,
        alpha=0.01,
    )
    report = run_condition_experiment(cfg)
    for row in report.rows:
        assert row.freq1 == 1.0  # max weight is 1 <= fitted C(n)
        assert row.freq2 == 0.0  # zero lift never reaches 2*alpha*n
        assert row.mean_max_weight == 1.0
        assert abs(row.mean_lift) < 1e-12
        assert row.ci1 == pytest.approx(math.sqrt(math.log(2.0 / 0.01) / (2 * 25)))
    assert report.alpha == 0.01


def test_conditions_upward_desk_scale():
    cfg = make_config(
        mechanism=Upward(0.5),
        distribution=Uniform(0.0, 0.98),
        sizes=(2000,),
        reps_per_size=40,
        delta_exponent=0.95,
    )
    report = run_condition_experiment(cfg)
    row = report.rows[0]
    assert row.freq1 == 1.0
    assert row.freq2 > 0.9  # strong positive lift at default alpha
    assert 0.0 <= row.freq3 <= 1.0
    assert row.mean_nullified == 0.0


@pytest.mark.parametrize(
    "run, overrides",
    [
        pytest.param(run_condition_experiment, {}, id="conditions"),
        pytest.param(run_gain_sweep, {}, id="gain"),
        pytest.param(run_scaling_study, {"sizes": (100, 10_000)}, id="scaling"),
        pytest.param(
            run_sixstep_experiment, {"mechanism": GeneralContinuous(0.3, BENCH_GRID)}, id="sixstep"
        ),
        pytest.param(run_simulate_experiment, {}, id="simulate"),
    ],
)
def test_run_deterministic_across_threads(run, overrides, four_cpus, monkeypatch):
    monkeypatch.setattr(harness, "VOTERS_PER_WORKER", 1)  # these small sizes fork too
    cfg = make_config(**{"sizes": (120, 240), "reps_per_size": 16, **overrides})
    assert harness.worker_count(cfg, 4) == 4
    assert run(cfg, threads=1) == run(cfg, threads=4)


def test_replicate_keys_each_stream_by_size_index_and_rep():
    cfg = make_config(sizes=(5, 9, 13), reps_per_size=3)
    per_size = harness.replicate(cfg, lambda n, rep, rng: (n, rep, rng.random()), threads=2)
    assert per_size == [
        [(n, rep, substream(cfg.seed, n_idx, rep).random()) for rep in range(3)]
        for n_idx, n in enumerate(cfg.sizes)
    ]


# ---------------------------------------------------------------------------
# forked workers

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="replicate runs serially")
# 270,000 voters in all: above the cutoff for 4 workers
FORKED_SIZES = {"sizes": (30_000, 60_000), "reps_per_size": 3}


@pytest.fixture
def four_cpus(monkeypatch):
    """An affinity set of four CPUs (this process's own, repeated), so four
    workers fork on any host; afterwards the affinity is back and no child is left."""
    cpus = harness._cpus()
    if cpus:
        monkeypatch.setattr(harness, "_cpus", lambda: (cpus * 4)[:4])
    yield
    if cpus:
        assert sorted(os.sched_getaffinity(0)) == cpus
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


def keyed_draw(n, rep, rng):
    return (n, rep, rng.random(), os.getpid())


def test_worker_count_caps(monkeypatch):
    small = make_config(sizes=(200, 400), reps_per_size=12)  # criterion 12's sizes
    big = make_config(**FORKED_SIZES)
    cpus = len(harness._cpus()) or os.cpu_count()
    assert harness.worker_count(small, 16) == 1
    assert harness.worker_count(big, 1) == 1
    assert harness.worker_count(big, 64) == min(6, cpus)
    monkeypatch.delattr(os, "fork")
    assert harness.worker_count(big, 64) == 1


@needs_fork
@pytest.mark.parametrize("threads", [2, 4])
def test_forked_workers_match_one_worker(four_cpus, threads):
    cfg = make_config(**FORKED_SIZES)
    assert harness.worker_count(cfg, threads) == threads
    serial = harness.replicate(cfg, keyed_draw, 1)
    forked = harness.replicate(cfg, keyed_draw, threads)
    assert len({row[3] for rows in forked for row in rows}) == threads
    assert [[row[:3] for row in rows] for rows in forked] == [
        [row[:3] for row in rows] for rows in serial
    ]


@needs_fork
def test_worker_error_reaches_the_caller(four_cpus):
    parent = os.getpid()

    def fail_in_worker(n, rep, rng):
        if os.getpid() != parent:
            raise ValueError(f"bad instance n={n} rep={rep}")
        return rep

    # worker 1 of 2 runs keys 1, 3 and 5, the first of which is (30000, rep 1)
    with pytest.raises(ValueError, match=r"^bad instance n=30000 rep=1$"):
        harness.replicate(make_config(**FORKED_SIZES), fail_in_worker, 2)


@needs_fork
def test_worker_error_exits_the_cli_with_two(four_cpus, monkeypatch, tmp_path, capsys):
    parent = os.getpid()

    def fail_in_worker(cfg, n, rep, rng):
        if os.getpid() != parent:
            raise ValueError(f"bad instance n={n} rep={rep}")
        return (1, 0.0, 0.0, 0)

    monkeypatch.setattr(harness, "_instance_stats", fail_in_worker)
    config = {
        "mechanism": {"kind": "upward", "p": 0.5},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "sizes": [30_000, 60_000],
        "reps_per_size": 1,
        "seed": 3,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    argv = ["conditions", "--config", str(path), "--out", str(tmp_path / "out"), "--threads", "2"]
    assert cli_main(argv) == 2
    assert "runtime error: bad instance n=60000 rep=0" in capsys.readouterr().err


@needs_fork
def test_error_in_the_callers_share_kills_the_workers(four_cpus):
    parent = os.getpid()

    def slow_workers(n, rep, rng):
        if os.getpid() == parent:
            raise ValueError("the caller's share failed")
        time.sleep(60)

    started = time.monotonic()
    with pytest.raises(ValueError, match="the caller's share failed"):
        harness.replicate(make_config(**FORKED_SIZES), slow_workers, 4)
    assert time.monotonic() - started < 30


@needs_fork
def test_failed_fork_reaps_the_workers_already_forked(four_cpus, monkeypatch):
    real_fork = os.fork
    forks = []

    def fork_twice():
        if len(forks) == 2:
            raise OSError("fork refused")
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_twice)
    with pytest.raises(OSError, match="fork refused"):
        harness.replicate(make_config(**FORKED_SIZES), keyed_draw, 4)
    assert len(forks) == 2


def test_conditions_frequencies_nondecreasing_in_default_suite():
    for mech in default_mechanisms().values():
        cfg = make_config(mechanism=mech, sizes=(500, 1000, 2000), reps_per_size=40)
        report = run_condition_experiment(cfg)
        for attr in ("freq1", "freq2"):
            values = [getattr(row, attr) for row in report.rows]
            cis = [row.ci1 for row in report.rows]
            for i in range(len(values) - 1):
                slack = cis[i] + cis[i + 1]
                assert values[i + 1] >= values[i] - slack, (mech, attr, values)


# ---------------------------------------------------------------------------
# gain sweep


def test_gain_sweep_no_delegation_is_zero():
    cfg = make_config(mechanism=ConfidenceBased(ConstantQ(0.0)), sizes=(100,), reps_per_size=10)
    rows = run_gain_sweep(cfg)
    assert len(rows) == 10
    for _, _, gain, p_direct, p_fluid, max_w, nullified, *_ in rows:
        assert gain == 0.0
        assert p_direct == p_fluid
        assert max_w == 1
        assert nullified == 0


def test_gain_sweep_monte_carlo_mode_and_determinism():
    cfg = make_config(
        sizes=(150,),
        reps_per_size=6,
        gain_mode=MonteCarloGainMode(reps=2000, delta=0.01),
    )
    rows1 = run_gain_sweep(cfg, threads=1)
    rows2 = run_gain_sweep(cfg, threads=4)
    assert rows1 == rows2
    for _, _, gain, p_direct, p_fluid, *_ in rows1:
        assert -1.0 <= gain <= 1.0
        assert 0.0 <= p_direct <= 1.0 and 0.0 <= p_fluid <= 1.0


def test_gain_sweep_rejects_oversized_exact(monkeypatch):
    sampled = []
    monkeypatch.setattr(harness, "sample_instance", lambda *args: sampled.append(args))
    for mode in (ExactGainMode(), MonteCarloGainMode(reps=10, delta=0.1)):
        cfg = make_config(sizes=(100, MAX_TOTAL_WEIGHT + 1), reps_per_size=1, gain_mode=mode)
        with pytest.raises(ValueError, match="sizes"):
            run_gain_sweep(cfg)
    assert sampled == []


def test_auto_gain_rows_equal_exact_rows(tmp_path):
    doc = {
        "mechanism": {"kind": "confidence", "q": {"kind": "linear", "a": 0.8, "b": 0.8}},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
        "sizes": [20, 50],
        "reps_per_size": 2,
        "seed": 77,
    }
    # 'cap' lies below both sizes and is ignored
    auto = {"kind": "auto", "cap": 30, "target_halfwidth": 0.1, "delta": 0.1}
    paths = []
    for mode in (auto, {"kind": "exact"}):
        rows = run_gain_sweep(config_from_dict({**doc, "gain_mode": mode}))
        assert [row[7] for row in rows] == ["exact"] * 4
        paths.append(tmp_path / f"{mode['kind']}.csv")
        write_csv(paths[-1], GAIN_HEADER, rows)
    assert paths[0].read_bytes() == paths[1].read_bytes()


# ---------------------------------------------------------------------------
# scaling study


@pytest.mark.parametrize("q", [99.0, 99.9, 50.0, 12.5, 0.0, 100.0])
def test_percentile_equals_numpy_percentile(q):
    rng = substream(90)
    for k in range(300):
        n = 1 if k < 3 else int(rng.integers(2, 200))
        # integer values on odd k, so that neighbouring order statistics tie
        values = rng.integers(0, 12, size=n).astype(float) if k % 2 else rng.random(n) * 50.0
        assert harness._percentile(values, q) == float(np.percentile(values, q))


def test_upward_instance_peak_memory():
    # about 6.8 MiB of traced allocations at n = 2e5, 4.4 arrays of n words: one
    # more n-word array alive at once (1.5 MiB) breaks the bound
    n = 200_000
    cfg = ExperimentConfig(Upward(0.5), Uniform(0.0, 0.98), (n,), 1, 7, delta_exponent=0.95)
    rng = substream(7, 0, 0)
    tracemalloc.start()
    try:
        harness._instance_stats(cfg, n, 0, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.0 * 2**20


def test_scaling_study_span_validation():
    with pytest.raises(ValueError, match="decades"):
        run_scaling_study(make_config(sizes=(100, 500)))


def test_scaling_study_rows():
    cfg = make_config(sizes=(100, 10_000), reps_per_size=10)
    rows = run_scaling_study(cfg)
    assert [r[0] for r in rows] == [100, 10_000]
    for n, p99, ratio, nullified_fraction in rows:
        assert p99 >= 1.0
        assert ratio == pytest.approx(p99 / math.log(n))
        assert 0.0 <= nullified_fraction <= 1.0


def test_scaling_study_general_continuous_nullified_fraction():
    from fluiddem import ExpInY, normalize_phi

    phi = normalize_phi(ExpInY(1.0), UNIT)
    cfg = make_config(
        mechanism=GeneralContinuous(0.3, phi), sizes=(100, 10_000), reps_per_size=20
    )
    rows = run_scaling_study(cfg)
    assert rows[1][3] <= 0.01  # mean nullified fraction at n = 1e4


def test_scaling_study_upward_never_nullifies():
    cfg = make_config(mechanism=Upward(0.5), sizes=(100, 10_000), reps_per_size=20)
    rows = run_scaling_study(cfg)
    assert all(row[3] == 0.0 for row in rows)


# ---------------------------------------------------------------------------
# six-step sampler


def test_six_step_requires_general_continuous():
    with pytest.raises(ValueError):
        run_six_step_sampler(Upward(0.5), UNIT, 100, substream(0))


def test_six_step_vanishing_delegation():
    mech = GeneralContinuous(1e-9, AffineInY(1.0, 2.0))
    _, graph, diag = run_six_step_sampler(mech, UNIT, 1000, substream(1))
    assert diag.m_size == 1000  # everyone votes directly
    assert diag.r_size == 0
    assert np.all(graph.out == NO_EDGE)


def test_six_step_events_hold_at_scale():
    mech = GeneralContinuous(0.3, AffineInY(1.0, 2.0))
    reps = 200
    hits = np.zeros(6)
    for rep in range(reps):
        _, _, diag = run_six_step_sampler(mech, UNIT, 10_000, substream(2, rep), eps=0.05)
        hits += np.array(diag.events, dtype=float)
        assert diag.events[3] is True  # step four cannot fail
    freqs = hits / reps
    assert freqs[0] >= 0.99
    assert freqs[1] >= 0.99


def test_six_step_matches_direct_sampler():
    mech = GeneralContinuous(0.3, AffineInY(1.0, 2.0))
    n = 2000
    reps = 1000
    tw_six = np.empty(reps)
    tw_direct = np.empty(reps)
    for rep in range(reps):
        _, graph, _ = run_six_step_sampler(mech, UNIT, n, substream(3, rep))
        tw_six[rep] = compute_weights(graph).total_weight
        _, graph2 = sample_instance(mech, UNIT, n, substream(4, rep))
        tw_direct[rep] = compute_weights(graph2).total_weight
    se = math.sqrt(tw_six.var() / reps + tw_direct.var() / reps)
    assert abs(tw_six.mean() - tw_direct.mean()) < 3 * se


def test_six_step_matches_direct_sampler_tabulated():
    mech = GeneralContinuous(0.3, BENCH_GRID)
    n = 2000
    reps = 1000
    tw_six = np.empty(reps)
    tw_direct = np.empty(reps)
    for rep in range(reps):
        _, graph, _ = run_six_step_sampler(mech, UNIT, n, substream(3, rep))
        tw_six[rep] = compute_weights(graph).total_weight
        _, graph2 = sample_instance(mech, UNIT, n, substream(4, rep))
        tw_direct[rep] = compute_weights(graph2).total_weight
    se = math.sqrt(tw_six.var() / reps + tw_direct.var() / reps)
    assert abs(tw_six.mean() - tw_direct.mean()) < 3 * se


def test_sixstep_experiment_computes_the_lift_constant_once(monkeypatch):
    calls = []

    def counted(phi_n, dist):
        calls.append(1)
        return gc_lift_constant(phi_n, dist)

    monkeypatch.setattr(harness, "gc_lift_constant", counted)
    cfg = make_config(
        mechanism=GeneralContinuous(0.3, BENCH_GRID), sizes=(300, 600), reps_per_size=3
    )
    rows = run_sixstep_experiment(cfg)
    assert len(calls) == 1
    monkeypatch.undo()
    for n_idx, n in enumerate(cfg.sizes):
        for rep in range(3):
            # without the keyword the sampler computes the same constant itself
            rng = substream(cfg.seed, n_idx, rep)
            _, _, diag = run_six_step_sampler(cfg.mechanism, UNIT, n, rng, eps=cfg.eps)
            assert rows[n_idx * 3 + rep][2:8] == diag.events


def test_six_step_tabulated_phi_runs():
    from fluiddem import TabulatedPhi

    mech = GeneralContinuous(0.3, TabulatedPhi(((1.0, 2.0, 4.0), (2.0, 3.0, 3.5))))
    _, graph, diag = run_six_step_sampler(mech, UNIT, 400, substream(5))
    assert graph.n == 400
    assert len(diag.events) == 6


@pytest.mark.parametrize("n", [50, 500, 2000])
def test_six_step_partial_graph_counts_match_the_oracle(n):
    # step 5's partial graph is the returned graph without R's edges, and R is
    # exactly the delegators whose target has no edge (M holds no delegator)
    for phi in (BENCH_GRID, AffineInY(1.0, 2.0)):
        for seed in range(3):
            p_vec, graph, diag = run_six_step_sampler(
                GeneralContinuous(0.6, phi), UNIT, n, substream(8, seed)
            )
            out = graph.out
            r_idx = np.flatnonzero((out >= 0) & (out[np.maximum(out, 0)] < 0))
            assert r_idx.size == diag.r_size
            partial = out.copy()
            partial[r_idx] = NO_EDGE
            dels = np.array(naive_profile(partial.tolist())[0])
            assert diag.max_dels_partial == dels.max()
            weighted_q = float(np.sum((1 + dels[r_idx]) * p_vec[out[r_idx]]))
            assert diag.weighted_q_sum == pytest.approx(weighted_q, rel=1e-12, abs=1e-12)


def test_sixstep_experiment_rows():
    cfg = make_config(
        mechanism=GeneralContinuous(0.3, AffineInY(1.0, 2.0)),
        sizes=(500,),
        reps_per_size=8,
    )
    rows = run_sixstep_experiment(cfg)
    assert len(rows) == 8
    for row in rows:
        assert row[0] == 500
        assert all(flag in (True, False) for flag in row[2:8])
        assert row[5] is True  # e4


# ---------------------------------------------------------------------------
# simulate rows


def test_simulate_rows_consistent():
    cfg = make_config(sizes=(300,), reps_per_size=12)
    rows = run_simulate_experiment(cfg)
    assert len(rows) == 12
    for n, rep, max_w, total_w, nullified in rows:
        assert n == 300
        assert total_w + nullified == 300
        assert 0 <= max_w <= 300
