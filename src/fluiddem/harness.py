"""Seeded, replicated experiments over delegation instances.

Experiments sample instances of increasing size and report, per size, the
empirical frequencies of three sufficient conditions for fluid voting to be
safe and useful (bounded maximum weight, a linear-in-n competence lift from
delegation, and separation of the direct and fluid expected tallies around
n/2), gain distributions, and max-weight scaling. Replications within one
size run on disjoint random streams keyed by (seed, size index, rep), so
results are byte-identical for any worker count. `replicate` runs them on
forked worker processes, pinned one per CPU of the affinity set, and
serially for small configs or where the platform cannot fork. Gain rows
are tallied exactly at every size up to tally.MAX_TOTAL_WEIGHT (the `exact`
mode, also named `auto`), or by Monte Carlo when a config asks for it.

The six-step sampler draws targets with the direct sampler's grid-row
mixture kernel (mixture_targets) and mixes per-row sums for its weights.
"""

from __future__ import annotations

import csv
import math
import os
import pickle
import signal
from functools import partial
from pathlib import Path
from typing import Optional, Union

import numpy as np

from . import distributions
from .distributions import DistributionSpec
from .delegation_graph import DelegationGraph, NO_EDGE, compute_weights, mixture_targets
from .delegation_graph import sample_instance, to_edge_csv
from .mechanisms import (
    GeneralContinuous,
    MechanismSpec,
    gc_lift_constant,
    normalize_phi,
    read_record,
)
from .record import Record
from .streams import substream
from .tally import MAX_TOTAL_WEIGHT, ExactGainMode, MonteCarloGainMode
from .tally import exact_gain, hoeffding_halfwidth, monte_carlo_gain


# ---------------------------------------------------------------------------
# configuration


GainMode = Union[ExactGainMode, MonteCarloGainMode]


class ExperimentConfig(Record):
    mechanism: MechanismSpec
    distribution: DistributionSpec
    sizes: tuple[int, ...]
    reps_per_size: int
    seed: int
    delta_exponent: Optional[float] = None  # C(n) = n**delta_exponent (mechanism.delta_floor set)
    log_coefficient: Optional[float] = None  # C(n) = coeff * ln n (other mechanisms)
    alpha: Optional[float] = None  # lift constant; default from mechanism.lift
    gain_mode: GainMode = ExactGainMode()
    ci_delta: float = 0.01  # confidence parameter for reported Hoeffding half-widths
    eps: float = 0.05  # slack parameter for the six-step diagnostics

    def __post_init__(self):
        sizes = tuple(self.sizes)
        object.__setattr__(self, "sizes", sizes)
        if not sizes:
            raise ValueError("field 'sizes': must be nonempty")
        if any(n < 1 for n in sizes):
            raise ValueError("field 'sizes': all sizes must be >= 1")
        if any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ValueError("field 'sizes': must be strictly increasing")
        if self.reps_per_size < 1:
            raise ValueError("field 'reps_per_size': must be >= 1")
        if self.seed < 0:
            raise ValueError(f"field 'seed': must be >= 0, got {self.seed}")
        if not 0.0 < self.ci_delta < 1.0:
            raise ValueError("field 'ci_delta': must be in (0, 1)")
        if self.eps <= 0.0:
            raise ValueError("field 'eps': must be positive")
        lower = self.mechanism.delta_floor
        if self.delta_exponent is not None and lower is not None:
            if not lower < self.delta_exponent < 1.0:
                raise ValueError(
                    f"field 'delta_exponent': must lie in ({lower:.6g}, 1) for this mechanism"
                )

    def max_weight_bound(self, n: int, fitted_log_coefficient: Optional[float] = None) -> float:
        """C(n): n**delta where the mechanism has a delta_floor (Upward), coeff * ln n otherwise.

        delta defaults to the midpoint of its valid range (delta_floor, 1).
        """
        lower = self.mechanism.delta_floor
        if lower is not None:
            delta = self.delta_exponent if self.delta_exponent is not None else 0.5 * (lower + 1.0)
            return float(n) ** delta
        coeff = self.log_coefficient if self.log_coefficient is not None else fitted_log_coefficient
        if coeff is None:
            raise ValueError("log coefficient has not been fitted yet")
        return coeff * math.log(n)


def config_from_dict(obj: dict) -> ExperimentConfig:
    """Read an experiment config document, naming the offending field on error."""
    return read_record(ExperimentConfig, obj)


# ---------------------------------------------------------------------------
# replication plumbing


# Below this many voters per worker, summed over every instance of a config,
# a fork is taken to cost more than the share of work it takes over: forking,
# pinning and reaping a worker take 2-3 ms, and the worker then faults its
# heap in afresh. The `replicate` layers of tools/bench_layers.py put the
# break-even higher: on exact gain rows two workers tie one at 2 x 1e5 voters
# and win at 2 x 1e6 (131-173 against 221-274 ms), on Upward conditions they
# lose at 2 x 1e5 and win at 2 x 1e6 (73-89 against 101-108 ms), and gain-auto's
# 64,000 voters take 19.2 ms on two against 18.2 on one (2-vCPU Xeon VM, 2026).
VOTERS_PER_WORKER = 25_000


def _cpus() -> list[int]:
    """The CPUs this process may run on, in order; [] where it cannot pin."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return []


def worker_count(cfg: ExperimentConfig, threads: int) -> int:
    """min(threads, instances, CPUs, total voters // VOTERS_PER_WORKER), at least 1.

    CPUs counts the process's affinity set; without os.fork the answer is 1.
    """
    if not hasattr(os, "fork"):
        return 1
    keys = len(cfg.sizes) * cfg.reps_per_size
    cpus = len(_cpus()) or os.cpu_count() or 1
    voters = sum(cfg.sizes) * cfg.reps_per_size
    return max(1, min(threads, keys, cpus, voters // VOTERS_PER_WORKER))


def replicate(cfg: ExperimentConfig, fn, threads: int) -> list[list]:
    """fn(n, rep, rng) for every size n and rep, one list per size in rep order.

    rng is substream(cfg.seed, size index, rep), so each result depends only
    on its own key and the output does not depend on the worker count. The
    (size, rep) keys run on worker_count(cfg, threads) workers: worker w >= 1
    is a forked process that runs keys[w::workers], the caller runs
    keys[0::workers], and each is pinned to its own CPU of the affinity set.
    Small configs and platforms without os.fork run serially in the caller.
    """
    keys = [(n_idx, n, rep) for n_idx, n in enumerate(cfg.sizes) for rep in range(cfg.reps_per_size)]

    def one(key):
        n_idx, n, rep = key
        return fn(n, rep, substream(cfg.seed, n_idx, rep))

    workers = worker_count(cfg, threads)
    flat = [None] * len(keys)
    for w, results in enumerate(_forked_map(one, keys, workers)):
        flat[w::workers] = results
    reps = cfg.reps_per_size
    return [flat[i : i + reps] for i in range(0, len(flat), reps)]


def _forked_map(fn, keys: list, workers: int) -> list[list]:
    """[[fn(k) for k in keys[w::workers]] for w in range(workers)].

    Shares w >= 1 run in forked children, each sending its results (or its
    exception) back as one pickle through a pipe; share 0 runs here. Where
    the platform can pin, child w runs on the w-th CPU of the affinity set
    and this process on the first until the map ends. A worker's exception
    is raised here with its type and message, and every child is reaped
    before this returns or raises. Forking is safe because fluiddem starts
    no threads.
    """
    if workers == 1:
        return [[fn(k) for k in keys]]
    cpus = _cpus()
    saved = set(cpus)
    readers, pids = [], []  # pids holds the children not reaped yet
    try:
        for w in range(1, workers):
            read_fd, write_fd = os.pipe()
            readers.append(os.fdopen(read_fd, "rb"))
            with os.fdopen(write_fd, "wb") as writer:  # the parent's copy closes here
                pid = os.fork()
                if pid == 0:
                    _run_share(fn, keys[w::workers], writer, cpus[w] if cpus else None)
                pids.append(pid)
        if cpus:
            os.sched_setaffinity(0, {cpus[0]})
        shares = [[fn(k) for k in keys[0::workers]]]
        for w, (pid, reader) in enumerate(zip(list(pids), readers), start=1):
            data = reader.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids.remove(pid)
            if code != 0:
                raise RuntimeError(f"replicate worker {w} exited with code {code}")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            shares.append(value)
        return shares
    finally:
        if cpus:
            os.sched_setaffinity(0, saved)
        for reader in readers:
            reader.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_share(fn, keys: list, writer, cpu: Optional[int]) -> None:
    """In a forked child: pickle (True, results) or (False, exception) to writer, then exit."""
    status = 1
    try:
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        try:
            payload = (True, [fn(k) for k in keys])
        except Exception as exc:  # noqa: BLE001 - sent to the parent, which raises it
            payload = (False, exc)
        pickle.dump(payload, writer, protocol=pickle.HIGHEST_PROTOCOL)
        writer.close()
        status = 0
    finally:
        os._exit(status)


def check_command(command: str, cfg: ExperimentConfig) -> ExperimentConfig:
    """cfg, checked for the command before any instance is sampled; conditions' alpha resolved.

    gain: sizes above tally.MAX_TOTAL_WEIGHT, in every gain mode (an instance
    of n voters has total weight at most n, so the limit bounds every exact
    tail the sweep computes). scaling: sizes spanning fewer than 2 decades.
    sixstep: a mechanism other than kind 'general'. A size below 2 where the
    run divides by ln n (scaling, and conditions fitting log_coefficient) or
    needs two voters (sixstep). conditions: no alpha where the mechanism's
    lift gives none; a missing alpha becomes the lift's.
    """
    if command == "gain" and max(cfg.sizes) > MAX_TOTAL_WEIGHT:
        raise ValueError(
            f"field 'sizes': gain supports n <= {MAX_TOTAL_WEIGHT}, got {max(cfg.sizes)}"
        )
    if command == "scaling" and max(cfg.sizes) < 100 * min(cfg.sizes):
        raise ValueError("field 'sizes': a scaling study needs sizes spanning >= 2 decades")
    if command == "sixstep" and not cfg.mechanism.six_step:
        raise ValueError("field 'mechanism': the sixstep experiment needs kind 'general'")
    divides_by_ln_n = command == "scaling" or (
        command == "conditions" and cfg.mechanism.delta_floor is None and cfg.log_coefficient is None
    )
    if min(cfg.sizes) < 2 and (divides_by_ln_n or command == "sixstep"):
        raise ValueError(f"field 'sizes': {command} needs every size >= 2, got {min(cfg.sizes)}")
    if command == "conditions" and cfg.alpha is None:
        try:
            cfg = cfg.replace(alpha=cfg.mechanism.lift(cfg.distribution)[1])
        except ValueError as exc:
            message = f"field 'alpha': missing, and the mechanism's lift gives none: {exc}"
            raise ValueError(message) from exc
    return cfg


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
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


class ConditionRow(Record):
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


class ConditionReport(Record):
    rows: tuple[ConditionRow, ...]
    alpha: float
    delta_exponent: Optional[float]
    log_coefficient: Optional[float]

    def to_csv(self, path) -> None:
        write_csv(path, ConditionRow._fields, [r._values() for r in self.rows])


def _instance_stats(cfg: ExperimentConfig, n: int, rep: int, rng) -> tuple:
    p_vec, graph = sample_instance(cfg.mechanism, cfg.distribution, n, rng)
    profile = compute_weights(graph)
    comp_sum = float(p_vec.sum())
    # no n-word float copy of the weights, and no BLAS, whose thread count moves the last digits
    weighted_sum = float(np.einsum("i,i->", profile.weight, p_vec))
    return (
        profile.max_weight,
        weighted_sum - comp_sum,
        comp_sum,
        len(profile.nullified),
    )


def _percentile(values: np.ndarray, q: float) -> float:
    """np.percentile(values, q) without its import of numpy.ma: the point at
    (n - 1) * q / 100 between order statistics a and b, interpolated as numpy's
    linear method does (from b downward once t >= 0.5)."""
    ordered = np.sort(values)
    position = (ordered.size - 1) * (q / 100)
    below = math.floor(position)
    a, b = ordered[below], ordered[min(below + 1, ordered.size - 1)]
    t = position - below
    return float(a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t))


def run_condition_experiment(cfg: ExperimentConfig, threads: int = 1) -> ConditionReport:
    """Empirical frequencies of the three sufficient conditions, per size.

    Condition 1: max_weight <= C(n). Condition 2: the delegation lift
    sum_i weight_i p_i - sum_i p_i reaches 2*alpha*n. Condition 3: the direct
    expectation sits below n/2 - alpha*n while the fluid expectation sits
    above n/2 + alpha*n. Frequencies come with Hoeffding half-widths at
    confidence 1 - ci_delta. When no log_coefficient is given (the bound is
    coeff * ln n),
    it is fitted at the smallest size as the 99.9th percentile of
    max_weight / ln n.
    """
    cfg = check_command("conditions", cfg)
    alpha = cfg.alpha
    log_bound = cfg.mechanism.delta_floor is None
    ci = hoeffding_halfwidth(cfg.reps_per_size, cfg.ci_delta)
    fitted: Optional[float] = cfg.log_coefficient
    rows = []
    per_size = replicate(cfg, partial(_instance_stats, cfg), threads)
    for n, stats in zip(cfg.sizes, per_size):
        max_ws, lifts, comp_sums, nullified = (np.array(col, dtype=float) for col in zip(*stats))
        if fitted is None and log_bound:
            fitted = _percentile(max_ws / math.log(n), 99.9)
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
        delta_exponent=None if log_bound else cfg.delta_exponent,
        log_coefficient=fitted if log_bound else None,
    )


# ---------------------------------------------------------------------------
# gain sweep


GAIN_HEADER = [
    "n", "rep", "gain", "p_direct", "p_fluid", "max_weight", "nullified",
    "method", "ci_halfwidth", "reps",  # the tally behind the row; empty cells on exact rows
]


def _gain_row(cfg: ExperimentConfig, n: int, rep: int, rng) -> tuple:
    p_vec, graph = sample_instance(cfg.mechanism, cfg.distribution, n, rng)
    profile = compute_weights(graph)
    gain_mode = cfg.gain_mode
    if isinstance(gain_mode, MonteCarloGainMode):
        report = monte_carlo_gain(
            p_vec, graph, gain_mode.reps, gain_mode.delta, rng, weights=profile.weight
        )
    else:
        report = exact_gain(p_vec, graph, weights=profile.weight)
    return (
        n,
        rep,
        report.gain,
        report.p_direct,
        report.p_fluid,
        profile.max_weight,
        len(profile.nullified),
        report.method,
        report.ci_halfwidth,
        report.reps,
    )


def run_gain_sweep(cfg: ExperimentConfig, threads: int = 1) -> list[tuple]:
    """One row per rep, with the GAIN_HEADER columns (ci_halfwidth and reps None on exact rows)."""
    check_command("gain", cfg)
    return [row for rows in replicate(cfg, partial(_gain_row, cfg), threads) for row in rows]


# ---------------------------------------------------------------------------
# scaling study


SCALING_HEADER = ["n", "percentile99_max_weight", "max_weight_over_ln_n", "nullified_fraction"]


def run_scaling_study(cfg: ExperimentConfig, threads: int = 1) -> list[tuple]:
    """Per size: 99th-percentile max_weight, its ratio to ln n, mean nullified fraction."""
    check_command("scaling", cfg)
    rows = []
    for n, stats in zip(cfg.sizes, replicate(cfg, partial(_instance_stats, cfg), threads)):
        max_ws, _, _, nullified = (np.array(col, dtype=float) for col in zip(*stats))
        p99 = _percentile(max_ws, 99)
        rows.append((n, p99, p99 / math.log(n), float((nullified / n).mean())))
    return rows


# ---------------------------------------------------------------------------
# six-step decomposition of the general-continuous sampler


class SixStepDiagnostics(Record):
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


def run_six_step_sampler(
    mech: GeneralContinuous,
    dist,
    n: int,
    rng: np.random.Generator,
    eps: float = 0.05,
    log_coefficient: float = 4.0,
    lift_constant: Optional[float] = None,
):
    """Sample one instance through the six-step decomposition.

    Steps: (1) choose the non-delegator set M with per-voter probability
    1 - p; (2, 3) draw competencies outside and inside M; (4) choose the set
    R of delegators whose target falls in M, each with probability equal to
    the fraction of its pair weight lying on M; (5) resolve delegations of
    the remaining delegators among [n] \\ M; (6) resolve delegations of R into
    M. The joint law of (competencies, graph) equals the direct sampler's.
    lift_constant defaults to gc_lift_constant of the normalized phi.

    Returns (competencies, graph, SixStepDiagnostics).
    """
    if not mech.six_step:
        raise ValueError("the six-step sampler is defined for GeneralContinuous mechanisms")
    if n < 2:
        raise ValueError("need at least two voters")
    p = mech.p
    phi_n = normalize_phi(mech.phi, dist)
    # ratios below are scale-free, so sample with the cheaper equivalent
    phi = phi_n.sampling_base
    mu = dist.mean()
    if lift_constant is None:
        lift_constant = gc_lift_constant(phi_n, dist)
    lift_c = max(lift_constant, 0.0)
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

    # event 3: each delegator's weight on M, its weighted mean competence
    # there, and its weight on all others, mixed from per-row sums
    mix = phi.row_mixture(p_vec[out_idx])
    m_weight = mix.mixed(p_vec, lambda row: row[m_idx].sum())
    gp_m = mix.mixed(p_vec, lambda row: float(np.dot(row[m_idx], p_vec[m_idx])))
    total_weight_on_others = mix.mixed(p_vec, lambda row: row.sum() - row[out_idx])
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(m_weight > 0, gp_m / m_weight, np.nan)
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
        out_edges[rest_idx] = mixture_targets(phi, p_vec, rest_idx, out_idx, rng)
    partial = DelegationGraph(n, out_edges.copy())
    prof = compute_weights(partial)
    max_dels = int(prof.dels.max(initial=0))
    e5 = max_dels <= bound and prof.total_weight >= n - bound * bound * math.log(n)

    # step 6: delegations of R, into M (R is empty when M is)
    weighted_q = 0.0
    if r_idx.size:
        targets = mixture_targets(phi, p_vec, r_idx, m_idx, rng, forbid_self=False)
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
    check_command("sixstep", cfg)
    coeff = cfg.log_coefficient if cfg.log_coefficient is not None else 4.0
    lift = gc_lift_constant(normalize_phi(cfg.mechanism.phi, cfg.distribution), cfg.distribution)

    def sixstep_row(n, rep, rng):
        _, _, diag = run_six_step_sampler(
            cfg.mechanism,
            cfg.distribution,
            n,
            rng,
            eps=cfg.eps,
            log_coefficient=coeff,
            lift_constant=lift,
        )
        # the diagnostics after the events are the CSV's remaining columns, in order
        return (n, rep, *diag.events, *diag._values()[1:])

    return [row for rows in replicate(cfg, sixstep_row, threads) for row in rows]


# ---------------------------------------------------------------------------
# plain instance summaries (the `simulate` subcommand)


SIMULATE_HEADER = ["n", "rep", "max_weight", "total_weight", "nullified"]


def run_simulate_experiment(cfg: ExperimentConfig, threads: int = 1, edge_dir=None) -> list[tuple]:
    """Weight-profile summary per sampled instance.

    With edge_dir set, each instance's graph is also written there as
    edges_n{n}_rep{rep}.csv.
    """

    def summary_row(n, rep, rng):
        _, graph = sample_instance(cfg.mechanism, cfg.distribution, n, rng)
        if edge_dir is not None:
            to_edge_csv(graph, Path(edge_dir) / f"edges_n{n}_rep{rep}.csv")
        profile = compute_weights(graph)
        return (n, rep, profile.max_weight, profile.total_weight, len(profile.nullified))

    return [row for rows in replicate(cfg, summary_row, threads) for row in rows]
