"""Spans and counters around calls into fluiddem's public functions.

The traced replay runs `fluiddem.cli.main` in-process with selected module
attributes replaced by wrappers from this file, so the program's own files
are untouched. Each wrapper records a span (name, start, end, parent, size)
in memory; the spans are written out once the run ends. A layer's self time
is its spans' durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.sizes = ()  # the config's sizes, indexed by substream's size index
        self.spans = []  # [name, start, end, parent index or -1, size or None]
        self.stack = []
        self.counts = Counter()
        self.max_weight = 0
        self.size = None

    def open(self, name: str, start=None) -> int:
        parent = self.stack[-1] if self.stack else -1
        start = time.perf_counter() if start is None else start
        self.spans.append([name, start, None, parent, self.size])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def parent_name(self):
        return self.spans[self.stack[-1]][0] if self.stack else None

    def wrap(self, fn, name, before=None, after=None, nest_under=None):
        """fn wrapped in a span; before(args, kwargs) and after(result) update counters.

        When the innermost open span is `nest_under`, the call runs without a
        span of its own, so its time stays with that caller.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if nest_under is not None and self.parent_name() == nest_under:
                return fn(*args, **kwargs)
            if before is not None:
                before(args, kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(result)
            return result

        return traced

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        """{name: (inclusive seconds, self seconds)} and {(name, size): self seconds}."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        inclusive = defaultdict(float)
        own = defaultdict(float)
        by_size = defaultdict(float)
        for (name, start, end, _, size), child in zip(self.spans, covered):
            inclusive[name] += end - start
            own[name] += end - start - child
            by_size[(name, size)] += end - start - child
        return {k: (inclusive[k], own[k]) for k in inclusive}, dict(by_size)


def install(tracer: Tracer):
    """Replace fluiddem entry points with traced wrappers, for the rest of the process."""
    from fluiddem import cli, delegation_graph, distributions, harness, mechanisms, processes, tally

    counts = tracer.counts

    def on_substream(args, kwargs):
        if len(args) >= 2 and tracer.sizes:
            tracer.size = tracer.sizes[int(args[1])]

    def on_graph(graph):
        counts["delegation_graph.delegators"] += int((graph.out >= 0).sum())

    def on_weights(profile):
        counts["delegation_graph.nullified"] += int(len(profile.nullified))
        tracer.max_weight = max(tracer.max_weight, int(profile.max_weight))

    def on_fluid_tail(args, kwargs):
        weights = args[0]
        counts["tally.dp_cells"] += int((weights > 0).sum()) * int(weights.sum())

    def on_direct_tail(args, kwargs):
        counts["tally.dp_cells"] += len(args[0]) ** 2

    def on_monte_carlo(args, kwargs):
        counts["tally.mc_votes"] += int(args[2]) * int(args[1].n)

    def on_bucket_model(model):
        counts["processes.buckets"] += int(model.B)

    def count(key):
        return lambda args, kwargs: counts.update((key,))

    substream = tracer.wrap(harness.substream, "streams.substream", before=on_substream)
    setattr(harness, "substream", substream)
    setattr(cli, "substream", substream)
    setattr(distributions, "sample", tracer.wrap(distributions.sample, "distributions.sample"))
    setattr(
        delegation_graph,
        "sample_graph",
        tracer.wrap(delegation_graph.sample_graph, "delegation_graph.sample_graph", after=on_graph),
    )
    weights = tracer.wrap(
        delegation_graph.compute_weights, "delegation_graph.compute_weights", after=on_weights
    )
    setattr(harness, "compute_weights", weights)
    setattr(tally, "compute_weights", weights)
    setattr(harness, "exact_gain", tracer.wrap(tally.exact_gain, "tally.exact_gain"))
    setattr(
        tally,
        "direct_tail",
        tracer.wrap(tally.direct_tail, "tally.direct_tail", before=on_direct_tail),
    )
    setattr(
        tally,
        "weighted_poisson_binomial_tail",
        tracer.wrap(
            tally.weighted_poisson_binomial_tail,
            "tally.fluid_tail",
            before=on_fluid_tail,
            nest_under="tally.direct_tail",
        ),
    )
    setattr(
        harness,
        "monte_carlo_gain",
        tracer.wrap(tally.monte_carlo_gain, "tally.monte_carlo_gain", before=on_monte_carlo),
    )
    for entry in ("run_gain_sweep", "run_condition_experiment", "run_simulate_experiment"):
        setattr(harness, entry, tracer.wrap(getattr(harness, entry), "harness.replicate"))
    setattr(
        processes,
        "build_bucket_model",
        tracer.wrap(processes.build_bucket_model, "processes.build_bucket_model", after=on_bucket_model),
    )
    setattr(mechanisms, "normalize_phi", tracer.wrap(mechanisms.normalize_phi, "mechanisms.normalize_phi"))
    setattr(
        mechanisms.RowNormalizedPhi,
        "__call__",
        tracer.wrap(mechanisms.RowNormalizedPhi.__call__, "mechanisms.normalize_phi"),
    )
    mean_in_y = tracer.wrap(
        mechanisms.phi_mean_in_y,
        "mechanisms.phi_mean_in_y",
        before=count("mechanisms.phi_mean_in_y.calls"),
    )
    setattr(mechanisms, "phi_mean_in_y", mean_in_y)
    setattr(processes, "phi_mean_in_y", mean_in_y)
    integrate = tracer.wrap(
        mechanisms.integrate, "quadrature.integrate", before=count("quadrature.integrate.calls")
    )
    for owner in (mechanisms, harness, distributions):
        setattr(owner, "integrate", integrate)
    setattr(cli, "sample_instance", tracer.wrap(cli.sample_instance, "cli.resample"))
    setattr(cli, "to_edge_csv", tracer.wrap(cli.to_edge_csv, "delegation_graph.to_edge_csv"))
