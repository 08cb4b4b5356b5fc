"""The benchmark's workloads: one `fluiddem` subcommand plus a config per workload.

The benchmark seed becomes the config's `seed`; everything else is fixed, so
the same seed gives the same inputs and the CLI sees nothing but the
generated config document. `reps_per_size` is 2 for the replicated commands
so that both workers of a `--threads 2` run have an instance per size. Sizes
keep one CLI run near a second, so that a run of the benchmark holds enough
passes for its medians to be steady on a shared host.
"""

from __future__ import annotations

import math

# Tabulated, x-dependent phi shared by `simulate-general` and `processes-bucket`.
TABULATED_PHI = [[1.0, 2.0, 3.0], [1.5, 2.0, 3.0], [2.0, 2.5, 4.0]]

UNIFORM_01 = {"kind": "uniform", "lo": 0.0, "hi": 1.0}

# gain-auto: sizes up to the cap are tallied exactly, larger ones by Monte
# Carlo with ceil(ln(2/delta) / (2*h^2)) reps (Hoeffding).
GAIN_CAP = 10_000
GAIN_HALFWIDTH = 0.05
GAIN_DELTA = 0.05
GAIN_MC_REPS = math.ceil(math.log(2.0 / GAIN_DELTA) / (2.0 * GAIN_HALFWIDTH**2))
assert GAIN_MC_REPS == 738

# processes-bucket: the bucket count the tabulated phi implies at eps = 0.05
# (B doubles until the grid modulus of phi falls to L*eps).
BUCKET_EPS = 0.05
EXPECTED_BUCKETS = 64


def gain_auto(seed: int) -> dict:
    # Why: the tally layer does ~95% of the work (the exact DP at 4000 and
    # 8000, Monte Carlo with 738 reps at 20000, above the cap); sampling and
    # weights take under 5%. An exact-tally change shows here, and this is the
    # control for graph-layer changes.
    return {
        "mechanism": {"kind": "confidence", "q": {"kind": "linear", "a": 0.8, "b": 0.8}},
        "distribution": dict(UNIFORM_01),
        "sizes": [4_000, 8_000, 20_000],
        "reps_per_size": 2,
        "seed": seed,
        "gain_mode": {
            "kind": "auto",
            "cap": GAIN_CAP,
            "target_halfwidth": GAIN_HALFWIDTH,
            "delta": GAIN_DELTA,
        },
    }


def conditions_upward(seed: int) -> dict:
    # Why: no tally calls. The frontier walk in compute_weights and the upward
    # sampler's sort + unsorted searchsorted dominate, and the sizes span
    # working sets inside L2 (1e4) and well outside it (2e5: 1.6 MB per int64
    # array, ~15 MB per instance, inside L3). Pointer doubling and the
    # upward-rank change show here; this is the control for tally changes. The
    # top size is 2e5, not 1e6: at 5e5 two concurrent instances made
    # `--threads 2` swing by a quarter with the load of other tenants.
    return {
        "mechanism": {"kind": "upward", "p": 0.5},
        "distribution": {"kind": "uniform", "lo": 0.0, "hi": 0.98},
        "sizes": [10_000, 50_000, 200_000],
        "reps_per_size": 2,
        "seed": seed,
        "delta_exponent": 0.95,
    }


def simulate_general(seed: int) -> dict:
    # Why: the x-dependent phi samples each delegator with an O(n) Python row
    # (~90% of the time; TabulatedPhi rebuilds its grid on every call), and
    # `simulate` samples every instance a second time, serially, to write the
    # edge lists. This covers the write path; weights and tally are negligible.
    return {
        "mechanism": {"kind": "general", "p": 0.3, "phi": {"kind": "tabulated", "values": TABULATED_PHI}},
        "distribution": dict(UNIFORM_01),
        "sizes": [1_000, 2_000],
        "reps_per_size": 2,
        "seed": seed,
    }


def processes_bucket(seed: int) -> dict:
    # Why: the only CLI path into `processes`: ~2.6k adaptive quadratures of
    # the row-normalized phi plus the bucket sup table, i.e. phi evaluated as
    # thousands of scalar calls rather than a few long rows. A change that
    # speeds up rows but slows scalar calls shows here. No threads are used,
    # so this is the control for wall_s_t2. The command takes no seed.
    del seed
    return {
        "phi": {"kind": "tabulated", "values": TABULATED_PHI},
        "distribution": dict(UNIFORM_01),
        "p": 0.3,
        "eps": BUCKET_EPS,
    }


# workload name -> (CLI subcommand, config factory)
WORKLOADS = {
    "gain-auto": ("gain", gain_auto),
    "conditions-upward": ("conditions", conditions_upward),
    "simulate-general": ("simulate", simulate_general),
    "processes-bucket": ("processes", processes_bucket),
}
