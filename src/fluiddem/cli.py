"""Command-line front end.

Subcommands: simulate, gain, conditions, scaling, processes, sixstep. Each
run is driven by a single JSON config document; flags only override the seed,
the size list, the output directory and the worker count, so a run is fully
reproducible from its config plus the recorded manifest. Data goes to files
(or standard output for `processes` without --out); progress and errors go to
standard error.

Exit codes: 0 success, 1 config/validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__, distributions, harness, mechanisms, processes
from .delegation_graph import sample_instance, to_edge_csv
from .streams import substream

DATA_COMMANDS = ("simulate", "gain", "conditions", "scaling", "sixstep")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluiddem",
        description="Sample delegation instances and tally fluid vs. direct voting accuracy.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "simulate": "sample instances; write per-instance weight summaries and edge lists",
        "gain": "exact or Monte Carlo gain per sampled instance",
        "conditions": "empirical frequencies of the max-weight, lift and separation conditions",
        "scaling": "99th-percentile max-weight scaling across sizes",
        "processes": "build the bucketized multi-type branching model and report it as JSON",
        "sixstep": "per-step diagnostics of the decomposed general-continuous sampler",
    }
    for name, help_text in specs.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the JSON config document")
        cmd.add_argument(
            "--out",
            default=None,
            required=name != "processes",
            help="output directory (created if missing)",
        )
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument(
            "--sizes", default=None, help="override the config sizes, e.g. 500,1000"
        )
        cmd.add_argument(
            "--threads",
            type=int,
            default=os.cpu_count() or 1,
            help="worker pool size for replications (default: machine parallelism)",
        )
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"field 'config': cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"field 'config': {path} is not valid JSON: {exc}") from exc


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"field 'sizes': cannot parse override {text!r}") from exc


def _validate_for_command(command: str, cfg: harness.ExperimentConfig) -> None:
    if command == "gain" and isinstance(cfg.gain_mode, harness.ExactGainMode):
        if max(cfg.sizes) > cfg.gain_mode.cap:
            raise ValueError(
                f"field 'sizes': exact gain supports n <= {cfg.gain_mode.cap}; "
                "use a monte_carlo gain_mode"
            )
    if command == "scaling" and max(cfg.sizes) < 100 * min(cfg.sizes):
        raise ValueError("field 'sizes': a scaling study needs sizes spanning >= 2 decades")
    if command == "sixstep" and not isinstance(cfg.mechanism, mechanisms.GeneralContinuous):
        raise ValueError("field 'mechanism': the sixstep experiment needs kind 'general'")


def _bucket_inputs(raw: dict):
    for required in ("phi", "distribution", "p", "eps"):
        if required not in raw:
            raise ValueError(f"field '{required}': missing")
    try:
        phi = mechanisms.phi_from_config(raw["phi"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"field 'phi': {exc}") from exc
    try:
        dist = distributions.from_config(raw["distribution"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ValueError(f"field 'distribution': {exc}") from exc
    p = float(raw["p"])
    eps = float(raw["eps"])
    if not 0.0 < p < 1.0:
        raise ValueError("field 'p': must be in (0, 1)")
    if eps <= 0.0:
        raise ValueError("field 'eps': must be positive")
    factor = processes.subcriticality_factor(p, eps)
    if not factor < 1.0:
        raise ValueError(
            f"field 'eps': p*(1+eps)^3/(1-2*eps) = {factor:.6g} >= 1; the model must be sub-critical"
        )
    if raw.get("normalize", True):
        phi = mechanisms.normalize_phi(phi, dist)
    return phi, dist, p, eps


def _write_manifest(out_dir: Path, command: str, raw_config: dict, cfg_kv: dict, wall: float):
    digest = hashlib.sha256(
        json.dumps(raw_config, sort_keys=True).encode("utf-8")
    ).hexdigest()
    manifest = {
        "command": command,
        "package_version": __version__,
        "config": raw_config,
        "config_sha256": digest,
        **cfg_kv,
        "wall_time_seconds": wall,
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _progress(message: str) -> None:
    print(message, file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = args.command
    started = time.monotonic()

    # validation phase: everything must parse before any sampling starts
    try:
        raw_config = _load_json(args.config)
        if command == "processes":
            bucket_inputs = _bucket_inputs(raw_config)
            cfg = None
        else:
            cfg = harness.config_from_dict(raw_config)
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=int(args.seed))
            if args.sizes is not None:
                cfg = dataclasses.replace(cfg, sizes=_parse_sizes(args.sizes))
            _validate_for_command(command, cfg)
        if args.threads < 1:
            raise ValueError(f"field 'threads': must be >= 1, got {args.threads}")
        out_dir = None
        if args.out is not None:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    threads = args.threads
    try:
        if command == "processes":
            phi, dist, p, eps = bucket_inputs
            model = processes.build_bucket_model(phi, dist, p, eps)
            _progress(f"bucket model built: B={model.B} spectral_radius={model.spectral_radius:.6g}")
            payload = model.to_json()
            if out_dir is None:
                print(payload)
            else:
                (out_dir / "bucket_model.json").write_text(payload + "\n")
                _write_manifest(
                    out_dir,
                    command,
                    raw_config,
                    {"seed": None, "sizes": None, "threads": threads},
                    time.monotonic() - started,
                )
            return 0

        _progress(
            f"{command}: sizes={list(cfg.sizes)} reps_per_size={cfg.reps_per_size} "
            f"seed={cfg.seed} threads={threads}"
        )
        if command == "simulate":
            rows = harness.run_simulate_experiment(cfg, threads)
            harness.write_simulate_csv(rows, out_dir / "instances.csv")
            for n_idx, n in enumerate(cfg.sizes):
                for rep in range(cfg.reps_per_size):
                    rng = substream(cfg.seed, n_idx, rep)
                    _, graph = sample_instance(cfg.mechanism, cfg.distribution, n, rng)
                    to_edge_csv(graph, out_dir / f"edges_n{n}_rep{rep}.csv")
        elif command == "gain":
            rows = harness.run_gain_sweep(cfg, threads)
            harness.write_gain_csv(rows, out_dir / "gain.csv")
        elif command == "conditions":
            report = harness.run_condition_experiment(cfg, threads)
            report.to_csv(out_dir / "conditions.csv")
            _progress(
                f"alpha={report.alpha!r} delta_exponent={report.delta_exponent!r} "
                f"log_coefficient={report.log_coefficient!r}"
            )
        elif command == "scaling":
            rows = harness.run_scaling_study(cfg, threads)
            harness.write_scaling_csv(rows, out_dir / "scaling.csv")
        elif command == "sixstep":
            rows = harness.run_sixstep_experiment(cfg, threads)
            harness.write_sixstep_csv(rows, out_dir / "sixstep.csv")
        else:  # pragma: no cover - argparse guards this
            raise ValueError(f"unknown command {command!r}")

        _write_manifest(
            out_dir,
            command,
            raw_config,
            {"seed": cfg.seed, "sizes": list(cfg.sizes), "threads": threads},
            time.monotonic() - started,
        )
        _progress(f"{command}: wrote {out_dir}")
        return 0
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
