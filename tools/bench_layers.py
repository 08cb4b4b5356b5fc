"""Per-layer timings of fluiddem at n = 1e4, 1e5 and 1e6.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/bench_layers.py --label change --out BENCH_17.json

Every layer runs RUNS times per size on fixed seeds (substream(SEED, size
index, run)), one instance per run, competencies from Uniform(0, 1); the
median wall time of the timed call is recorded in milliseconds (`median_ms`),
and beside it the lower and upper quartiles of the same calls (`p25_ms`,
`p75_ms`), so that a change between two runs can be read against each run's
own spread. One more, untimed call per layer and size runs under
tracemalloc, and its peak of traced allocations, divided by n, is recorded
in bytes per voter (`peak_bytes_per_voter`): the working set the layer adds
to its inputs. For the 2-worker `replicate` layer it is the calling
process's share only. Inputs a layer only consumes (a graph for compute_weights,
competencies for direct_tail and for the upward rank order `_count_greater`,
a confidence graph and its weights for the fluid tail and the Monte Carlo
tally, a confidence graph for to_edge_csv) are built outside the timed call;
to_edge_csv writes to os.devnull, so its time is the formatting and one
write call, not the disk. The layers run with the glibc malloc thresholds
that `fluiddem` CLI runs fix (`cli._keep_freed_heap`), so the tally layers
fault in no more pages than they do under the CLI.

The output file keeps one entry per --label, so the same script run with
PYTHONPATH pointing at another checkout's src adds that checkout's numbers
beside this one's. Each entry records the environment and the git commit of
the fluiddem it imported, and whether its files differ from that commit.
--layers restricts a run to the named layers (and `import`, the start-up probe).

An A/B comparison runs in one command:

    PYTHONPATH=src python3 tools/bench_layers.py --against ../parent --processes 4 \
        --layers direct_tail "exact_gain, confidence graph" --out BENCH_21.json

It starts 2 x --processes fresh interpreters of this script, alternately
(ABBA) with PYTHONPATH at this side's src and at PATH/src, each pinned to the
last CPU of this process's affinity set where the platform allows, and
writes their runs (change-1, parent-1, ...; --label renames this side) into
a new --out file, with a `sides` entry per side (the sha256 of its fluiddem
sources and its git commit, null outside a checkout) and a `summary`: per
layer and size, each side's range of per-process medians, the median of
those medians, their ratio (this side over PATH's) and whether the two
ranges overlap. Ranges that do not overlap mark a difference that the
host's process-to-process spread does not explain.

A size is skipped (recorded as null) when the layer's median at the previous
size, scaled by the square of the size ratio, exceeds SKIP_ABOVE_S: an
O(n^2) layer would run for hours at 1e6.

The `import` layer is the start-up of the CLI: the median over IMPORT_RUNS
fresh interpreters, run with `-X importtime`, of the time to `import
fluiddem.cli` (the same fluiddem, found through PYTHONPATH), of the number of
modules that import loads, and of fluiddem's own share (the summed
`-X importtime` self times of the fluiddem modules). It also records the
probes' `sys.flags.dont_write_bytecode`: when set (PYTHONDONTWRITEBYTECODE),
no `__pycache__` is written, so every probe compiles fluiddem's sources and
their own time includes that compilation. Each probe then times its first
`cli.main`, a `conditions` run of one voter at `--threads 1`, whose time is
the CLI's fixed cost per run: argument parsing, config validation, one
instance and the file writes. Its quartiles over the probes are recorded
(`first_run_p25_ms`, `first_run_median_ms`, `first_run_p75_ms`), and with
them the modules that run loads (`first_run_modules`), which should be none.

The `replicate` layers time harness.replicate on 2 reps of size n at a cap
of 1 and of 2 workers, so they show what a second worker saves at each
size, fork included; a config below the worker cutoff runs serially at
either cap. The conditions layers take the conditions-upward workload's
instances (Upward(0.5) under Uniform(0, 0.98), the conditions statistics of
each), the gain layers gain-auto's (ConfidenceBased(LinearQ(0.8, 0.8))
under Uniform(0, 1), the exact gain row of each).

Layers that do not grow with n (`fixed_ms`, quartiles in `fixed_p25_ms` and
`fixed_p75_ms`) are timed RUNS times at their one size: `build_bucket_model`
of the row-normalized 3x3 tabulated phi, with p = 0.3 and eps = 0.05 as in
the processes-bucket workload, under three laws (a fresh phi per run, so its
row means are computed inside the timed call), and `phi_mean_in_y` of that
phi over the 21 x of the model's normalization check.
A fluiddem whose `phi_mean_in_y` takes one float x at a time is timed on the
same 21 x, one call each.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

# fluiddem before numpy, so that the layers run with the BLAS thread count the CLI gets
import fluiddem  # isort: skip
import numpy as np
from fluiddem import cli, delegation_graph, distributions, harness, mechanisms, processes, tally
from fluiddem.delegation_graph import compute_weights, sample_instance, to_edge_csv
from fluiddem.harness import ExperimentConfig, run_six_step_sampler
from fluiddem.mechanisms import (
    AffineInY,
    ConfidenceBased,
    GeneralContinuous,
    LinearQ,
    TabulatedPhi,
    Upward,
    normalize_phi,
)
from fluiddem.streams import substream

SIZES = (10_000, 100_000, 1_000_000)
RUNS = 7
SEED = 2024
SKIP_ABOVE_S = 20.0
IMPORT_RUNS = 5
IMPORT_PROBE = """
import json, sys, time
before, start = len(sys.modules), time.perf_counter()
import fluiddem.cli
ms = 1e3 * (time.perf_counter() - start)
loaded = set(sys.modules)
start = time.perf_counter()
rc = fluiddem.cli.main(["conditions", "--config", sys.argv[1], "--out", sys.argv[2], "--threads", "1"])
run_ms = 1e3 * (time.perf_counter() - start)
print(json.dumps({
    "ms": ms,
    "modules": len(loaded) - before,
    "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
    "rc": rc,
    "run_ms": run_ms,
    "run_modules": sorted(set(sys.modules) - loaded),
}))
"""
# the probe's first CLI run: one Upward instance of one voter, so the run is its fixed cost
ONE_VOTER_CONDITIONS = {
    "mechanism": {"kind": "upward", "p": 0.5},
    "distribution": {"kind": "uniform", "lo": 0.0, "hi": 1.0},
    "sizes": [1],
    "reps_per_size": 1,
    "seed": SEED,
}
# Hoeffding reps for half-width 0.05 at confidence 0.95, the values in gain-auto's config
MC_REPS = 738

UNIT = distributions.Uniform(0.0, 1.0)
NARROWED = distributions.Uniform(0.0, 0.98)  # the conditions-upward workload's law
UPWARD = Upward(0.5)
CONFIDENCE = ConfidenceBased(LinearQ(0.8, 0.8))
AFFINE = GeneralContinuous(0.3, AffineInY(1.0, 2.0))
# the tabulated phi of the simulate-general and processes-bucket workloads
TABULATED_PHI = TabulatedPhi(((1.0, 2.0, 3.0), (1.5, 2.0, 3.0), (2.0, 2.5, 4.0)))
TABULATED = GeneralContinuous(0.3, TABULATED_PHI)


def _instance(mech):
    return lambda n, rng: lambda: sample_instance(mech, UNIT, n, rng)


def _weights(mech):
    def prepare(n, rng):
        _, graph = sample_instance(mech, UNIT, n, rng)
        return lambda: compute_weights(graph)

    return prepare


def _count_greater(n, rng):
    p_vec = distributions.sample(UNIT, rng, size=n)
    return lambda: delegation_graph._count_greater(p_vec)


def _direct_tail(n, rng):
    p_vec = distributions.sample(UNIT, rng, size=n)
    return lambda: tally.direct_tail(p_vec)


def _fluid_tail(at_mean):
    # n/2 is the threshold of the gain; a confidence graph's fluid mean lies far
    # above it, so the tail at the mean is the one that needs the whole product
    def prepare(n, rng):
        p_vec, graph = sample_instance(CONFIDENCE, UNIT, n, rng)
        weight = compute_weights(graph).weight
        threshold = float((weight * p_vec).sum()) if at_mean else n / 2.0
        return lambda: tally.weighted_poisson_binomial_tail(weight, p_vec, threshold)

    return prepare


def _exact_gain(n, rng):
    # gain-auto's per-instance call: the instance's weights come with it
    p_vec, graph = sample_instance(CONFIDENCE, UNIT, n, rng)
    weight = compute_weights(graph).weight
    return lambda: tally.exact_gain(p_vec, graph, weights=weight)


def _monte_carlo(n, rng):
    p_vec, graph = sample_instance(CONFIDENCE, UNIT, n, rng)
    weight = compute_weights(graph).weight
    return lambda: tally.monte_carlo_gain(p_vec, graph, MC_REPS, 0.05, rng, weights=weight)


def _edge_csv(n, rng):
    _, graph = sample_instance(CONFIDENCE, UNIT, n, rng)
    return lambda: to_edge_csv(graph, os.devnull)


def _simon(n, rng):
    return lambda: processes.simulate_simon_components(n, 0.5, rng)


def _six_step(mech):
    return lambda n, rng: lambda: run_six_step_sampler(mech, UNIT, n, rng)


def _replicate(row, workers, **fields):
    def prepare(n, rng):
        cfg = ExperimentConfig(sizes=(n,), reps_per_size=2, seed=int(rng.integers(2**31)), **fields)
        return lambda: harness.replicate(cfg, partial(row, cfg), workers)

    return prepare


# the conditions-upward and gain-auto workloads' instances and rows
CONDITIONS = dict(mechanism=UPWARD, distribution=NARROWED, delta_exponent=0.95)
GAIN = dict(mechanism=CONFIDENCE, distribution=UNIT)


# layer name -> prepare(n, rng) returning the call to time
LAYERS = {
    "competence draw": lambda n, rng: lambda: distributions.sample(UNIT, rng, size=n),
    "_count_greater": _count_greater,
    "sample_instance upward": _instance(UPWARD),
    "sample_instance confidence": _instance(CONFIDENCE),
    "sample_instance general, affine phi": _instance(AFFINE),
    "sample_instance general, 3x3 tabulated phi": _instance(TABULATED),
    "compute_weights upward": _weights(UPWARD),
    "compute_weights confidence": _weights(CONFIDENCE),
    "direct_tail": _direct_tail,
    "fluid tail, confidence graph": _fluid_tail(at_mean=False),
    "fluid tail at its mean, confidence graph": _fluid_tail(at_mean=True),
    "exact_gain, confidence graph": _exact_gain,
    f"monte_carlo_gain, {MC_REPS} reps": _monte_carlo,
    "to_edge_csv, confidence graph": _edge_csv,
    "simulate_simon_components": _simon,
    "six-step sampler, affine phi": _six_step(AFFINE),
    "six-step sampler, 3x3 tabulated phi": _six_step(TABULATED),
    "replicate conditions upward, 2 reps, 1 worker": _replicate(harness._instance_stats, 1, **CONDITIONS),
    "replicate conditions upward, 2 reps, 2 workers": _replicate(harness._instance_stats, 2, **CONDITIONS),
    "replicate gain confidence, 2 reps, 1 worker": _replicate(harness._gain_row, 1, **GAIN),
    "replicate gain confidence, 2 reps, 2 workers": _replicate(harness._gain_row, 2, **GAIN),
}


def _bucket_model(dist):
    def prepare():
        phi = normalize_phi(TABULATED_PHI, dist)
        return lambda: processes.build_bucket_model(phi, dist, 0.3, 0.05)

    return prepare


def _normalization_check():
    phi = normalize_phi(TABULATED_PHI, UNIT)
    xs = np.linspace(0.0, 1.0, 21)
    try:
        mechanisms.phi_mean_in_y(phi, UNIT, xs)
    except TypeError:  # phi_mean_in_y takes one float x
        return lambda: [mechanisms.phi_mean_in_y(phi, UNIT, float(x)) for x in xs]
    return lambda: mechanisms.phi_mean_in_y(phi, UNIT, xs)


# layer name -> prepare() returning the call to time, for layers without a size
FIXED_LAYERS = {
    "build_bucket_model, 3x3 tabulated phi, Uniform(0, 1)": _bucket_model(UNIT),
    "build_bucket_model, 3x3 tabulated phi, Uniform(0.1, 0.7)": _bucket_model(
        distributions.Uniform(0.1, 0.7)
    ),
    "build_bucket_model, 3x3 tabulated phi, TruncatedBeta(2, 3)": _bucket_model(
        distributions.TruncatedBeta(2.0, 3.0)
    ),
    "phi_mean_in_y, normalized 3x3 tabulated phi, 21 x": _normalization_check,
}


def quartiles(times) -> tuple[float, float, float]:
    """(p25, median, p75) of the timings, in milliseconds rounded to 1 µs."""
    p25, median, p75 = statistics.quantiles(times, n=4, method="inclusive")
    return round(p25, 3), round(median, 3), round(p75, 3)


def time_fixed_layer(prepare) -> tuple[float, float, float]:
    """Quartiles of RUNS calls, in milliseconds."""
    times = []
    for _ in range(RUNS):
        call = prepare()
        start = time.perf_counter()
        call()
        times.append(1e3 * (time.perf_counter() - start))
    return quartiles(times)


def time_layer(prepare, n: int, size_idx: int) -> tuple[float, float, float]:
    """Quartiles of RUNS fixed-seed calls at size n, in milliseconds."""
    times = []
    for run in range(RUNS):
        call = prepare(n, substream(SEED, size_idx, run))
        start = time.perf_counter()
        call()
        times.append(1e3 * (time.perf_counter() - start))
    return quartiles(times)


def peak_bytes_per_voter(prepare, n: int, size_idx: int) -> float:
    """Peak traced allocations of one untimed call at size n, in bytes per voter."""
    call = prepare(n, substream(SEED, size_idx, RUNS))
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return round(peak / n, 1)


def fluiddem_self_ms(importtime: str) -> float:
    """Summed self milliseconds of the fluiddem modules in `-X importtime` output."""
    total_us = 0
    for line in importtime.splitlines():
        if not line.startswith("import time:"):
            continue
        self_us, _, name = line[len("import time:") :].split("|")
        if name.strip().split(".")[0] == "fluiddem":
            total_us += int(self_us)
    return total_us / 1e3


def time_import() -> dict:
    """Medians of the time, module count and fluiddem's own time of `import fluiddem.cli`,
    and the quartiles of the first `cli.main` that follows it, with the modules that run loads."""
    env = dict(os.environ, PYTHONPATH=str(Path(fluiddem.__file__).resolve().parents[1]))
    probes = []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "conditions.json"
        config.write_text(json.dumps(ONE_VOTER_CONDITIONS))
        for _ in range(IMPORT_RUNS):
            done = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", IMPORT_PROBE, str(config), str(Path(tmp) / "run")],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            )
            probe = json.loads(done.stdout)
            if probe["rc"] != 0:
                raise RuntimeError(f"the probe's conditions run exited {probe['rc']}: {done.stderr[-500:]}")
            probes.append(dict(probe, self_ms=fluiddem_self_ms(done.stderr)))
    run_p25, run_median, run_p75 = quartiles([p["run_ms"] for p in probes])
    return {
        "median_ms": round(statistics.median(p["ms"] for p in probes), 3),
        "modules": statistics.median(p["modules"] for p in probes),
        "fluiddem_self_ms": round(statistics.median(p["self_ms"] for p in probes), 3),
        "dont_write_bytecode": probes[0]["dont_write_bytecode"],
        "first_run_p25_ms": run_p25,
        "first_run_median_ms": run_median,
        "first_run_p75_ms": run_p75,
        "first_run_modules": sorted({m for p in probes for m in p["run_modules"]}),
    }


def environment() -> dict:
    src = Path(fluiddem.__file__).resolve().parent
    try:
        commit = subprocess.run(
            ["git", "-C", str(src), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
        ).stdout.strip()
        dirty = bool(
            subprocess.run(
                ["git", "-C", str(src), "status", "--porcelain", "--", "."],
                capture_output=True,
                text=True,
                check=True,
            ).stdout.strip()
        )
    except (OSError, subprocess.CalledProcessError):
        commit, dirty = None, None
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            names = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        cpu = names[0] if names else None
    except OSError:
        pass
    return {
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "fluiddem_commit": commit,
        "uncommitted_changes": dirty,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
    }


def sources_sha256(src: Path) -> str:
    """The sha256 of a src's fluiddem sources, which names a side that is no git checkout."""
    digest = hashlib.sha256()
    for path in sorted((src / "fluiddem").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def summarize(runs: dict, labels: tuple[str, str]) -> dict:
    """Per layer and size: each side's range and median of per-process medians, their ratio, overlap."""
    ours, theirs = labels
    sample = next(iter(runs.values()))
    keyed = [(key, layer) for key in ("median_ms", "fixed_ms") for layer in sample[key]]
    summary = {}
    for key, layer in keyed:
        sizes = sample[key][layer] if key == "median_ms" else {"fixed": None}
        for size in sizes:
            per_side = {}
            for label in labels:
                values = [
                    run[key][layer] if key == "fixed_ms" else run[key][layer][size]
                    for name, run in runs.items()
                    if name.rsplit("-", 1)[0] == label
                ]
                per_side[label] = [v for v in values if v is not None]
            if not all(per_side.values()):
                continue
            low = {label: min(v) for label, v in per_side.items()}
            high = {label: max(v) for label, v in per_side.items()}
            mid = {label: statistics.median(v) for label, v in per_side.items()}
            summary.setdefault(layer, {})[size] = {
                **{f"{label}_range_ms": [low[label], high[label]] for label in labels},
                **{f"{label}_median_ms": round(mid[label], 3) for label in labels},
                "ratio": round(mid[ours] / mid[theirs], 3) if mid[theirs] else None,
                "ranges_overlap": low[ours] <= high[theirs] and low[theirs] <= high[ours],
            }
    return summary


def compare(args) -> int:
    """Alternate --processes runs of this script per side and write them with their summary."""
    here = Path(fluiddem.__file__).resolve().parents[1]
    there = Path(args.against).resolve() / "src"
    if not (there / "fluiddem").is_dir():
        raise SystemExit(f"{there / 'fluiddem'} is not a directory")
    sides = {args.label: here, "parent": there}
    cpu = max(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    pin = (lambda: os.sched_setaffinity(0, {cpu})) if cpu is not None else None
    runs, settings = {}, None
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(1, args.processes + 1):
            order = list(sides.items()) if i % 2 else list(sides.items())[::-1]  # ABBA against drift
            for label, src in order:
                name, out = f"{label}-{i}", Path(tmp) / f"{label}-{i}.json"
                command = [sys.executable, str(Path(__file__).resolve()), "--label", name, "--out", str(out)]
                if args.layers:
                    command += ["--layers", *args.layers]
                print(f"{name}: PYTHONPATH={src}", file=sys.stderr, flush=True)
                subprocess.run(command, env=dict(os.environ, PYTHONPATH=str(src)), check=True, preexec_fn=pin)
                doc = json.loads(out.read_text())
                runs[name], settings = doc["runs"][name], doc["settings"]
    summary = summarize(runs, tuple(sides))
    for layer, sizes in summary.items():
        for size, row in sizes.items():
            flag = "" if row["ranges_overlap"] else "  (ranges do not overlap)"
            print(f"{layer} {size}: ratio {row['ratio']}{flag}", file=sys.stderr)
    doc = {
        "settings": {**settings, "processes": args.processes, "cpu": cpu},
        "sides": {
            label: {
                "sha256": sources_sha256(src),
                **{k: runs[f"{label}-1"]["environment"][k] for k in ("fluiddem_commit", "uncommitted_changes")},
            }
            for label, src in sides.items()
        },
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", help="name of this run in the output file (with --against: this side's)")
    parser.add_argument("--out", required=True, help="JSON file to add the run to (with --against: to write)")
    parser.add_argument(
        "--layers", nargs="+", metavar="LAYER", choices=["import", *LAYERS, *FIXED_LAYERS],
        help="only these layers, named as in the output file (`import`: the start-up probe)",
    )
    parser.add_argument("--against", metavar="PATH", help="a second checkout (or copy) to run alternately")
    parser.add_argument("--processes", type=int, default=4, help="processes per side with --against")
    args = parser.parse_args(argv)
    if args.against:
        args.label = args.label or "change"
        return compare(args)
    if not args.label:
        parser.error("--label is required without --against")
    chosen = set(args.layers or ["import", *LAYERS, *FIXED_LAYERS])

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    doc["settings"] = {
        "sizes": list(SIZES),
        "runs": RUNS,
        "seed": SEED,
        "skip_above_s": SKIP_ABOVE_S,
        "import_runs": IMPORT_RUNS,
        "unit": "ms",
    }
    imported = time_import() if "import" in chosen else None
    if imported:
        print(
            f"import: {imported['median_ms']:.1f} ms, {imported['modules']} modules, "
            f"fluiddem's own {imported['fluiddem_self_ms']:.1f} ms, "
            f"dont_write_bytecode={imported['dont_write_bytecode']}; first conditions run of one voter: "
            f"{imported['first_run_median_ms']:.2f} [{imported['first_run_p25_ms']:.2f}, "
            f"{imported['first_run_p75_ms']:.2f}] ms, loading {imported['first_run_modules']}",
            file=sys.stderr,
        )
    cli._keep_freed_heap()
    stats = {"p25_ms": {}, "median_ms": {}, "p75_ms": {}, "peak_bytes_per_voter": {}}
    for name, prepare in LAYERS.items():
        if name not in chosen:
            continue
        rows, last = [{}, {}, {}, {}], None
        for size_idx, n in enumerate(SIZES):
            if last is not None and last[1] / 1e3 * (n / last[0]) ** 2 > SKIP_ABOVE_S:
                for row in rows:
                    row[str(n)] = None
                continue
            timed = time_layer(prepare, n, size_idx)
            peak = peak_bytes_per_voter(prepare, n, size_idx)
            for row, value in zip(rows, (*timed, peak)):
                row[str(n)] = value
            last = (n, timed[1])
            print(f"{name} n={n}: {timed[1]:.1f} [{timed[0]:.1f}, {timed[2]:.1f}] ms, {peak:.1f} B/voter",
                  file=sys.stderr, flush=True)
        for key, row in zip(stats, rows):
            stats[key][name] = row
    fixed = {"fixed_p25_ms": {}, "fixed_ms": {}, "fixed_p75_ms": {}}
    for name, prepare in FIXED_LAYERS.items():
        if name not in chosen:
            continue
        timed = time_fixed_layer(prepare)
        for key, ms in zip(fixed, timed):
            fixed[key][name] = ms
        print(f"{name}: {timed[1]:.1f} [{timed[0]:.1f}, {timed[2]:.1f}] ms", file=sys.stderr, flush=True)
    doc.setdefault("runs", {})[args.label] = {
        "environment": environment(),
        "import": imported,
        **stats,
        **fixed,
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
