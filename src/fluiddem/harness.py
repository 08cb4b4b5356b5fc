"""Seeded, replicated experiments over delegation instances.

Experiments sample instances of increasing size and report, per size, the
empirical frequencies of three sufficient conditions for fluid voting to be
safe and useful (bounded maximum weight, a linear-in-n competence lift from
delegation, and separation of the direct and fluid expected tallies around
n/2), gain distributions, and max-weight scaling. Replications within one
size run on disjoint random streams keyed by (seed, size index, rep), so
results are byte-identical for any worker count.
"""

from __future__ import annotations

import csv
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from . import distributions
from .distributions import DistributionSpec, Uniform, TruncatedBeta, PiecewiseLinearDensity
from .delegation_graph import DelegationGraph, NO_EDGE, compute_weights, sample_instance
from .mechanisms import (
    AffineInY,
    ConfidenceBased,
    Constant1,
    ExpInY,
    GeneralContinuous,
    LinearQ,
    MechanismSpec,
    Upward,
    normalize_phi,
    phi_y_knots as mechanisms_phi_y_knots,
    sampling_equivalent,
)
from .quadrature import integrate
from .streams import substream
from .tally import EXACT_GAIN_CAP, exact_gain, hoeffding_halfwidth, monte_carlo_gain


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExactGainMode:
    cap: int = EXACT_GAIN_CAP


@dataclass(frozen=True)
class MonteCarloGainMode:
    reps: int
    delta: float

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("field 'gain_mode.reps': must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("field 'gain_mode.delta': must be in (0, 1)")


@dataclass(frozen=True)
class AutoGainMode:
    """Exact tallies up to the cap, Monte Carlo beyond it.

    The Monte Carlo rep count comes from the Hoeffding bound for the target
    half-width at confidence 1 - delta.
    """

    cap: int = EXACT_GAIN_CAP
    target_halfwidth: float = 0.005
    delta: float = 0.01

    def resolve(self, n: int) -> "GainMode":
        if n <= self.cap:
            return ExactGainMode(self.cap)
        reps = math.ceil(math.log(2.0 / self.delta) / (2.0 * self.target_halfwidth**2))
        return MonteCarloGainMode(reps, self.delta)


GainMode = Union[ExactGainMode, MonteCarloGainMode, AutoGainMode]


def default_delta_exponent(p: float) -> float:
    """Midpoint of the valid exponent range (p + (1-p)*7/8, 1) for Upward."""
    lower = p + (1.0 - p) * 7.0 / 8.0
    return 0.5 * (lower + 1.0)


@dataclass(frozen=True)
class ExperimentConfig:
    mechanism: MechanismSpec
    distribution: DistributionSpec
    sizes: tuple[int, ...]
    reps_per_size: int
    seed: int
    delta_exponent: Optional[float] = None  # C(n) = n**delta_exponent (Upward)
    log_coefficient: Optional[float] = None  # C(n) = coeff * ln n (other mechanisms)
    alpha: Optional[float] = None  # lift constant; default from estimate_lift_constant
    gain_mode: GainMode = field(default_factory=AutoGainMode)
    ci_delta: float = 0.01  # confidence parameter for reported Hoeffding half-widths
    eps: float = 0.05  # slack parameter for the six-step diagnostics

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise ValueError("field 'sizes': must be nonempty")
        if any(n < 1 for n in sizes):
            raise ValueError("field 'sizes': all sizes must be >= 1")
        if any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ValueError("field 'sizes': must be strictly increasing")
        if self.reps_per_size < 1:
            raise ValueError("field 'reps_per_size': must be >= 1")
        if not 0.0 < self.ci_delta < 1.0:
            raise ValueError("field 'ci_delta': must be in (0, 1)")
        if self.eps <= 0.0:
            raise ValueError("field 'eps': must be positive")
        if self.delta_exponent is not None and isinstance(self.mechanism, Upward):
            lower = self.mechanism.p + (1.0 - self.mechanism.p) * 7.0 / 8.0
            if not lower < self.delta_exponent < 1.0:
                raise ValueError(
                    f"field 'delta_exponent': must lie in ({lower:.6g}, 1) for this mechanism"
                )

    def max_weight_bound(self, n: int, fitted_log_coefficient: Optional[float] = None) -> float:
        """C(n): n**delta for Upward, coeff * ln n otherwise."""
        if isinstance(self.mechanism, Upward):
            delta = self.delta_exponent
            if delta is None:
                delta = default_delta_exponent(self.mechanism.p)
            return float(n) ** delta
        coeff = self.log_coefficient if self.log_coefficient is not None else fitted_log_coefficient
        if coeff is None:
            raise ValueError("log coefficient has not been fitted yet")
        return coeff * math.log(n)


def config_from_dict(obj: dict) -> ExperimentConfig:
    """Parse an experiment config document, naming the offending field on error."""
    from . import mechanisms as mechs_mod

    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    for required in ("mechanism", "distribution", "sizes", "reps_per_size", "seed"):
        if required not in obj:
            raise ValueError(f"field '{required}': missing")
    gm_obj = obj.get("gain_mode", {"kind": "auto"})
    kind = gm_obj.get("kind") if isinstance(gm_obj, dict) else None
    if kind == "exact":
        gain_mode: GainMode = ExactGainMode(int(gm_obj.get("cap", EXACT_GAIN_CAP)))
    elif kind == "monte_carlo":
        gain_mode = MonteCarloGainMode(int(gm_obj["reps"]), float(gm_obj["delta"]))
    elif kind == "auto":
        gain_mode = AutoGainMode(
            cap=int(gm_obj.get("cap", EXACT_GAIN_CAP)),
            target_halfwidth=float(gm_obj.get("target_halfwidth", 0.005)),
            delta=float(gm_obj.get("delta", 0.01)),
        )
    else:
        raise ValueError("field 'gain_mode.kind': must be 'exact', 'monte_carlo' or 'auto'")
    try:
        mechanism = mechs_mod.from_config(obj["mechanism"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"field 'mechanism': {exc}") from exc
    try:
        distribution = distributions.from_config(obj["distribution"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"field 'distribution': {exc}") from exc
    return ExperimentConfig(
        mechanism=mechanism,
        distribution=distribution,
        sizes=tuple(int(n) for n in obj["sizes"]),
        reps_per_size=int(obj["reps_per_size"]),
        seed=int(obj["seed"]),
        delta_exponent=None if obj.get("delta_exponent") is None else float(obj["delta_exponent"]),
        log_coefficient=None
        if obj.get("log_coefficient") is None
        else float(obj["log_coefficient"]),
        alpha=None if obj.get("alpha") is None else float(obj["alpha"]),
        gain_mode=gain_mode,
        ci_delta=float(obj.get("ci_delta", 0.01)),
        eps=float(obj.get("eps", 0.05)),
    )


# ---------------------------------------------------------------------------
# built-in suite


def default_mechanisms() -> dict[str, MechanismSpec]:
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


# ---------------------------------------------------------------------------
# lift constants


def _phi_y_moment(phi, dist, x: float) -> float:
    """E_{y ~ dist}[phi(x, y) * y]."""
    breaks = set(distributions._breakpoints(dist))
    breaks.update(mechanisms_phi_y_knots(phi))
    return integrate(
        lambda y: float(phi(x, y)) * y * float(distributions.pdf(dist, y)),
        0.0,
        1.0,
        1e-11,
        breaks,
    )


def gc_lift_constant(phi_normalized, dist, grid: int = 200) -> float:
    """min over x of E_y[phi(x, y) * y] - mean(dist), for unit-y-mean phi."""
    mu = distributions.mean(dist)
    if not phi_normalized.depends_on_x:
        return _phi_y_moment(phi_normalized, dist, 0.5) - mu
    xs = np.linspace(0.0, 1.0, grid)
    return min(_phi_y_moment(phi_normalized, dist, float(x)) for x in xs) - mu


def estimate_lift_constant(mech: MechanismSpec, dist) -> tuple[float, float, float]:
    """(mu, lift constant, suggested alpha) for a mechanism/distribution pair.

    ConfidenceBased: the lift constant is mu* (expected competence conditioned
    on not delegating) and alpha = (mu* - mu) / 6. GeneralContinuous: the lift
    constant is c = min_x E_y[phi(x, y)*y] - mu for the normalized phi and
    alpha = c*p/4 (p is the delegation probability, so roughly p*n voters move
    their ballot to competence mu + c or better). Upward: the lift constant is
    the competence gap b - a between the 25th and 50th percentiles and
    alpha = p*pi_a*pi_b*(b - a)/8 with pi_a = 1/4, pi_b = 1/2.
    """
    mu = distributions.mean(dist)
    if isinstance(mech, Upward):
        a = distributions.quantile(dist, 0.25)
        b = distributions.quantile(dist, 0.5)
        pi_a = 0.25
        pi_b = 0.5
        alpha = mech.p * pi_a * pi_b * (b - a) / 8.0
        return mu, b - a, alpha
    if isinstance(mech, ConfidenceBased):
        mu_star = distributions.nondelegator_mean(dist, mech.q)
        if mu_star <= mu + 1e-12:
            raise ValueError(
                "q does not raise nondelegator competence (mu* <= mu); it must be decreasing"
            )
        return mu, mu_star, (mu_star - mu) / 6.0
    if isinstance(mech, GeneralContinuous):
        phi_n = normalize_phi(mech.phi, dist)
        c = gc_lift_constant(phi_n, dist)
        if c <= 1e-12:
            warnings.warn(
                "phi yields no competence lift (c = 0); a strictly y-increasing phi is required "
                "for positive gain",
                RuntimeWarning,
                stacklevel=2,
            )
            c = max(c, 0.0)
        return mu, c, c * mech.p / 4.0
    raise TypeError(f"not a mechanism: {mech!r}")


# ---------------------------------------------------------------------------
# replication plumbing


def _parallel_map(fn, items, threads: int):
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


# ---------------------------------------------------------------------------
# condition experiment


@dataclass(frozen=True)
class ConditionRow:
    n: int
    reps: int
    freq1: float
    ci1: float
    freq2: float
    ci2: float
    freq3: float
    ci3: float
    mean_max_weight: float
    mean_lift: float
    mean_nullified: float


@dataclass(frozen=True)
class ConditionReport:
    rows: tuple[ConditionRow, ...]
    alpha: float
    delta_exponent: Optional[float]
    log_coefficient: Optional[float]

    HEADER = [
        "n",
        "reps",
        "freq1",
        "ci1",
        "freq2",
        "ci2",
        "freq3",
        "ci3",
        "mean_max_weight",
        "mean_lift",
        "mean_nullified",
    ]

    def to_csv(self, path) -> None:
        write_csv(
            path,
            list(self.HEADER),
            [
                (
                    r.n,
                    r.reps,
                    r.freq1,
                    r.ci1,
                    r.freq2,
                    r.ci2,
                    r.freq3,
                    r.ci3,
                    r.mean_max_weight,
                    r.mean_lift,
                    r.mean_nullified,
                )
                for r in self.rows
            ],
        )


def _instance_stats(args):
    mech, dist, n, seed, n_idx, rep = args
    rng = substream(seed, n_idx, rep)
    p_vec, graph = sample_instance(mech, dist, n, rng)
    profile = compute_weights(graph)
    comp_sum = float(p_vec.sum())
    weighted_sum = float(np.dot(profile.weight, p_vec))
    return (
        profile.max_weight,
        weighted_sum - comp_sum,
        comp_sum,
        len(profile.nullified),
    )


def _resolve_alpha(cfg: ExperimentConfig) -> float:
    if cfg.alpha is not None:
        return cfg.alpha
    return estimate_lift_constant(cfg.mechanism, cfg.distribution)[2]


def run_condition_experiment(cfg: ExperimentConfig, threads: int = 1) -> ConditionReport:
    """Empirical frequencies of the three sufficient conditions, per size.

    Condition 1: max_weight <= C(n). Condition 2: the delegation lift
    sum_i weight_i p_i - sum_i p_i reaches 2*alpha*n. Condition 3: the direct
    expectation sits below n/2 - alpha*n while the fluid expectation sits
    above n/2 + alpha*n. Frequencies come with Hoeffding half-widths at
    confidence 1 - ci_delta. When no log_coefficient is given (non-Upward),
    it is fitted at the smallest size as the 99.9th percentile of
    max_weight / ln n.
    """
    alpha = _resolve_alpha(cfg)
    ci = hoeffding_halfwidth(cfg.reps_per_size, cfg.ci_delta)
    fitted: Optional[float] = cfg.log_coefficient
    rows = []
    for n_idx, n in enumerate(cfg.sizes):
        tasks = [
            (cfg.mechanism, cfg.distribution, n, cfg.seed, n_idx, rep)
            for rep in range(cfg.reps_per_size)
        ]
        stats_list = _parallel_map(_instance_stats, tasks, threads)
        max_ws = np.array([s[0] for s in stats_list], dtype=float)
        lifts = np.array([s[1] for s in stats_list])
        comp_sums = np.array([s[2] for s in stats_list])
        nullified = np.array([s[3] for s in stats_list], dtype=float)
        if fitted is None and not isinstance(cfg.mechanism, Upward):
            fitted = float(np.percentile(max_ws / math.log(n), 99.9))
        bound = cfg.max_weight_bound(n, fitted)
        half = n / 2.0
        cond1 = max_ws <= bound
        cond2 = lifts >= 2.0 * alpha * n
        cond3 = (comp_sums + alpha * n <= half) & (half <= comp_sums + lifts - alpha * n)
        rows.append(
            ConditionRow(
                n=n,
                reps=cfg.reps_per_size,
                freq1=float(cond1.mean()),
                ci1=ci,
                freq2=float(cond2.mean()),
                ci2=ci,
                freq3=float(cond3.mean()),
                ci3=ci,
                mean_max_weight=float(max_ws.mean()),
                mean_lift=float((lifts / n).mean()),
                mean_nullified=float((nullified / n).mean()),
            )
        )
    return ConditionReport(
        rows=tuple(rows),
        alpha=alpha,
        delta_exponent=cfg.delta_exponent if isinstance(cfg.mechanism, Upward) else None,
        log_coefficient=None if isinstance(cfg.mechanism, Upward) else fitted,
    )


# ---------------------------------------------------------------------------
# gain sweep


GAIN_HEADER = ["n", "rep", "gain", "p_direct", "p_fluid", "max_weight", "nullified"]


def _gain_row(args):
    mech, dist, n, seed, n_idx, rep, gain_mode = args
    rng = substream(seed, n_idx, rep)
    p_vec, graph = sample_instance(mech, dist, n, rng)
    profile = compute_weights(graph)
    if isinstance(gain_mode, ExactGainMode):
        report = exact_gain(p_vec, graph, cap=gain_mode.cap, weights=profile.weight)
    else:
        report = monte_carlo_gain(
            p_vec, graph, gain_mode.reps, gain_mode.delta, rng, weights=profile.weight
        )
    return (
        n,
        rep,
        report.gain,
        report.p_direct,
        report.p_fluid,
        profile.max_weight,
        len(profile.nullified),
    )


def run_gain_sweep(cfg: ExperimentConfig, threads: int = 1) -> list[tuple]:
    """One (n, rep, gain, p_direct, p_fluid, max_weight, nullified) row per rep."""
    if isinstance(cfg.gain_mode, ExactGainMode) and max(cfg.sizes) > cfg.gain_mode.cap:
        raise ValueError(
            f"field 'sizes': exact gain supports n <= {cfg.gain_mode.cap}; "
            "use a monte_carlo or auto gain_mode for larger sizes"
        )
    rows = []
    for n_idx, n in enumerate(cfg.sizes):
        mode = cfg.gain_mode.resolve(n) if isinstance(cfg.gain_mode, AutoGainMode) else cfg.gain_mode
        tasks = [
            (cfg.mechanism, cfg.distribution, n, cfg.seed, n_idx, rep, mode)
            for rep in range(cfg.reps_per_size)
        ]
        rows.extend(_parallel_map(_gain_row, tasks, threads))
    return rows


def write_gain_csv(rows: list[tuple], path) -> None:
    write_csv(path, list(GAIN_HEADER), rows)


# ---------------------------------------------------------------------------
# scaling study


SCALING_HEADER = ["n", "percentile99_max_weight", "max_weight_over_ln_n", "nullified_fraction"]


def run_scaling_study(cfg: ExperimentConfig, threads: int = 1) -> list[tuple]:
    """Per size: 99th-percentile max_weight, its ratio to ln n, mean nullified fraction."""
    if max(cfg.sizes) < 100 * min(cfg.sizes):
        raise ValueError("field 'sizes': a scaling study needs sizes spanning >= 2 decades")
    rows = []
    for n_idx, n in enumerate(cfg.sizes):
        tasks = [
            (cfg.mechanism, cfg.distribution, n, cfg.seed, n_idx, rep)
            for rep in range(cfg.reps_per_size)
        ]
        stats_list = _parallel_map(_instance_stats, tasks, threads)
        max_ws = np.array([s[0] for s in stats_list], dtype=float)
        nullified = np.array([s[3] for s in stats_list], dtype=float)
        p99 = float(np.percentile(max_ws, 99))
        rows.append((n, p99, p99 / math.log(n), float((nullified / n).mean())))
    return rows


def write_scaling_csv(rows: list[tuple], path) -> None:
    write_csv(path, list(SCALING_HEADER), rows)


# ---------------------------------------------------------------------------
# six-step decomposition of the general-continuous sampler


@dataclass(frozen=True)
class SixStepDiagnostics:
    """Per-step event indicators and the measured quantities behind them.

    Step 4 has no failure event and is reported as always holding. All
    thresholds use the slack parameter eps, the population mean mu and the
    lift constant c of the normalized phi.
    """

    events: tuple[bool, bool, bool, bool, bool, bool]
    m_size: int
    r_size: int
    delegator_comp_sum: float
    min_m_ratio: float
    max_dels_partial: int
    total_weight_partial: int
    weighted_q_sum: float
    eps: float
    mu: float
    lift_constant: float
    max_weight_bound: float


def _restricted_cumsum_targets(g, allowed_idx, sources, rng, forbid_self):
    """Inverse-CDF targets within allowed_idx for each source, resampling self-hits.

    Sources with no positive weight on anyone but themselves get NO_EDGE.
    """
    cum = np.cumsum(g[allowed_idx])
    targets = allowed_idx[np.searchsorted(cum, rng.random(sources.size) * cum[-1], side="right")]
    if forbid_self:
        stuck = g[sources] >= cum[-1]
        targets[stuck] = NO_EDGE
        bad = np.where((targets == sources) & ~stuck)[0]
        while bad.size:
            redraw = allowed_idx[
                np.searchsorted(cum, rng.random(bad.size) * cum[-1], side="right")
            ]
            targets[bad] = redraw
            bad = bad[targets[bad] == sources[bad]]
    return targets


def run_six_step_sampler(
    mech: GeneralContinuous,
    dist,
    n: int,
    rng: np.random.Generator,
    eps: float = 0.05,
    log_coefficient: float = 4.0,
):
    """Sample one instance through the six-step decomposition.

    Steps: (1) choose the non-delegator set M with per-voter probability
    1 - p; (2, 3) draw competencies outside and inside M; (4) choose the set
    R of delegators whose target falls in M, each with probability equal to
    the fraction of its pair weight lying on M; (5) resolve delegations of
    the remaining delegators among [n] \\ M; (6) resolve delegations of R into
    M. The joint law of (competencies, graph) equals the direct sampler's.

    Returns (competencies, graph, SixStepDiagnostics).
    """
    if not isinstance(mech, GeneralContinuous):
        raise ValueError("the six-step sampler is defined for GeneralContinuous mechanisms")
    if n < 2:
        raise ValueError("need at least two voters")
    p = mech.p
    phi_n = normalize_phi(mech.phi, dist)
    # ratios below are scale-free, so sample with the cheaper equivalent
    phi = sampling_equivalent(phi_n)
    mu = distributions.mean(dist)
    lift_c = max(gc_lift_constant(phi_n, dist), 0.0)
    bound = log_coefficient * math.log(n)

    # step 1: non-delegators
    in_m = rng.random(n) < (1.0 - p)
    m_idx = np.where(in_m)[0]
    out_idx = np.where(~in_m)[0]
    e1 = abs(m_idx.size - (1.0 - p) * n) <= eps * n

    # steps 2 and 3: competencies outside M, then inside M
    p_vec = np.empty(n)
    p_vec[out_idx] = distributions.sample(dist, rng, size=out_idx.size)
    p_vec[m_idx] = distributions.sample(dist, rng, size=m_idx.size)
    delegator_sum = float(p_vec[out_idx].sum())
    e2 = delegator_sum <= n * (mu + eps) * (p + eps)

    y_only = not phi.depends_on_x
    if y_only:
        g = np.asarray(phi(0.0, p_vec), dtype=float)
        g_total = g.sum()
        g_m = g[m_idx].sum()
        gp_m = float(np.dot(g[m_idx], p_vec[m_idx]))
        ratios = np.full(out_idx.size, gp_m / g_m if g_m > 0 else np.nan)
        m_weight = np.full(out_idx.size, g_m)
        total_weight_on_others = g_total - g[out_idx]
    else:
        ratios = np.empty(out_idx.size)
        m_weight = np.empty(out_idx.size)
        total_weight_on_others = np.empty(out_idx.size)
        for pos, i in enumerate(out_idx.tolist()):
            row = np.asarray(phi(p_vec[i], p_vec), dtype=float)
            m_row = row[m_idx]
            m_weight[pos] = m_row.sum()
            ratios[pos] = (
                float(np.dot(m_row, p_vec[m_idx])) / m_weight[pos] if m_weight[pos] > 0 else np.nan
            )
            total_weight_on_others[pos] = row.sum() - row[i]
    ratio_floor = (1.0 - eps) / (1.0 + eps) * (mu + lift_c)
    min_ratio = float(np.nanmin(ratios)) if out_idx.size and m_idx.size else float("nan")
    e3 = bool(out_idx.size == 0 or (m_idx.size > 0 and np.all(ratios >= ratio_floor)))

    # step 4: delegators headed into M (no failure event)
    with np.errstate(invalid="ignore", divide="ignore"):
        into_m_prob = np.where(total_weight_on_others > 0, m_weight / total_weight_on_others, 0.0)
    in_r = rng.random(out_idx.size) < into_m_prob
    r_idx = out_idx[in_r]
    rest_idx = out_idx[~in_r]
    e4 = True

    # step 5: delegations of the remaining delegators, among [n] \ M
    out_edges = np.full(n, NO_EDGE, dtype=np.int64)
    if rest_idx.size:
        if y_only:
            out_edges[rest_idx] = _restricted_cumsum_targets(g, out_idx, rest_idx, rng, True)
        else:
            for i in rest_idx.tolist():
                row = np.asarray(phi(p_vec[i], p_vec[out_idx]), dtype=float)
                row[np.searchsorted(out_idx, i)] = 0.0
                cum = np.cumsum(row)
                if cum[-1] <= 0:
                    continue
                out_edges[i] = out_idx[np.searchsorted(cum, rng.random() * cum[-1], side="right")]
    partial = DelegationGraph(n, out_edges.copy())
    prof = compute_weights(partial)
    max_dels = int(prof.dels.max(initial=0))
    e5 = max_dels <= bound and prof.total_weight >= n - bound * bound * math.log(n)

    # step 6: delegations of R, into M
    weighted_q = 0.0
    if r_idx.size:
        if m_idx.size == 0:
            targets = None  # cannot happen when in_r is nonempty (m_weight was 0)
        elif y_only:
            targets = _restricted_cumsum_targets(g, m_idx, r_idx, rng, False)
        else:
            targets = np.empty(r_idx.size, dtype=np.int64)
            for pos, i in enumerate(r_idx.tolist()):
                row = np.asarray(phi(p_vec[i], p_vec[m_idx]), dtype=float)
                cum = np.cumsum(row)
                targets[pos] = m_idx[np.searchsorted(cum, rng.random() * cum[-1], side="right")]
        if targets is not None:
            out_edges[r_idx] = targets
            weighted_q = float(np.dot(1.0 + prof.dels[r_idx], p_vec[targets]))
    q_floor = (1.0 - eps) ** 2 / (1.0 + eps) * (mu + lift_c) * (p - 2.0 * eps) * n
    e6 = weighted_q >= q_floor

    graph = DelegationGraph(n, out_edges)
    diagnostics = SixStepDiagnostics(
        events=(bool(e1), bool(e2), bool(e3), bool(e4), bool(e5), bool(e6)),
        m_size=int(m_idx.size),
        r_size=int(r_idx.size),
        delegator_comp_sum=delegator_sum,
        min_m_ratio=min_ratio,
        max_dels_partial=max_dels,
        total_weight_partial=prof.total_weight,
        weighted_q_sum=weighted_q,
        eps=eps,
        mu=mu,
        lift_constant=lift_c,
        max_weight_bound=bound,
    )
    return p_vec, graph, diagnostics


SIXSTEP_HEADER = [
    "n",
    "rep",
    "e1",
    "e2",
    "e3",
    "e4",
    "e5",
    "e6",
    "m_size",
    "r_size",
    "delegator_comp_sum",
    "min_m_ratio",
    "max_dels_partial",
    "total_weight_partial",
    "weighted_q_sum",
]


def run_sixstep_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[tuple]:
    """Six-step diagnostics, one row per (n, rep)."""
    if not isinstance(cfg.mechanism, GeneralContinuous):
        raise ValueError("field 'mechanism': the sixstep experiment needs kind 'general'")
    coeff = cfg.log_coefficient if cfg.log_coefficient is not None else 4.0

    def one(args):
        n_idx, n, rep = args
        rng = substream(cfg.seed, n_idx, rep)
        _, _, diag = run_six_step_sampler(
            cfg.mechanism, cfg.distribution, n, rng, eps=cfg.eps, log_coefficient=coeff
        )
        return (
            n,
            rep,
            *diag.events,
            diag.m_size,
            diag.r_size,
            diag.delegator_comp_sum,
            diag.min_m_ratio,
            diag.max_dels_partial,
            diag.total_weight_partial,
            diag.weighted_q_sum,
        )

    tasks = [
        (n_idx, n, rep)
        for n_idx, n in enumerate(cfg.sizes)
        for rep in range(cfg.reps_per_size)
    ]
    return _parallel_map(one, tasks, threads)


def write_sixstep_csv(rows: list[tuple], path) -> None:
    write_csv(path, list(SIXSTEP_HEADER), rows)


# ---------------------------------------------------------------------------
# plain instance summaries (the `simulate` subcommand)


SIMULATE_HEADER = ["n", "rep", "max_weight", "total_weight", "nullified"]


def run_simulate_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[tuple]:
    """Weight-profile summary per sampled instance."""

    def one(args):
        n_idx, n, rep = args
        rng = substream(cfg.seed, n_idx, rep)
        _, graph = sample_instance(cfg.mechanism, cfg.distribution, n, rng)
        profile = compute_weights(graph)
        return (n, rep, profile.max_weight, profile.total_weight, len(profile.nullified))

    tasks = [
        (n_idx, n, rep)
        for n_idx, n in enumerate(cfg.sizes)
        for rep in range(cfg.reps_per_size)
    ]
    return _parallel_map(one, tasks, threads)


def write_simulate_csv(rows: list[tuple], path) -> None:
    write_csv(path, list(SIMULATE_HEADER), rows)
